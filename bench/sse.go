package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sseFrame is one dispatched Server-Sent Event.
type sseFrame struct {
	event string
	data  []byte
}

// readFrame reads the next event from an SSE stream. Comment lines (the
// server's ": connected" and ": heartbeat") and frames without data are
// skipped; the returned data aliases a buffer reused by the next call.
func readFrame(r *bufio.Reader, buf *[]byte) (sseFrame, error) {
	var f sseFrame
	*buf = (*buf)[:0]
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return f, fmt.Errorf("SSE line longer than %d bytes", r.Size())
		}
		if err != nil {
			return f, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if len(*buf) > 0 {
				f.data = *buf
				return f, nil
			}
			f.event = "" // a blank line after only comments dispatches nothing
		case line[0] == ':':
		case bytes.HasPrefix(line, []byte("event:")):
			f.event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			*buf = append(*buf, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		}
	}
}

var tweetIDKey = []byte(`"tweet_id":"`)

// alertSeq extracts the sequence number from an alert event's payload.
// tweet_id precedes the free-text fields in the payload, and a quote inside
// a JSON string is always escaped, so the first match is the field itself.
func alertSeq(data []byte) (uint64, bool) {
	i := bytes.Index(data, tweetIDKey)
	if i < 0 {
		return 0, false
	}
	id := data[i+len(tweetIDKey):]
	if len(id) < 1+idDigits {
		return 0, false
	}
	return parseID(id[:1+idDigits])
}

// arrival is one alert as the client saw it: which tweet, and when.
type arrival struct {
	seq uint64
	at  time.Time
}

// alertReader is the benchmark's single SSE subscriber. It records the
// arrival time of every alert event; session and escalation events are
// verdicts about users, not tweets, and are ignored.
type alertReader struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	frames   int64 // events of every kind: what the server counts as streamed
	arrivals []arrival
	err      error
}

func subscribeAlerts(base string) (*alertReader, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/alerts", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req) // no timeout: the stream lives as long as the workload
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe /v1/alerts: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe /v1/alerts: status %d", resp.StatusCode)
	}
	a := &alertReader{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer resp.Body.Close()
		r := bufio.NewReaderSize(resp.Body, 256*1024)
		var buf []byte
		for {
			f, err := readFrame(r, &buf)
			if err != nil {
				if ctx.Err() == nil && err != io.EOF {
					a.mu.Lock()
					a.err = err
					a.mu.Unlock()
				}
				return
			}
			at := time.Now()
			if f.event != "alert" {
				a.mu.Lock()
				a.frames++
				a.mu.Unlock()
				continue
			}
			seq, ok := alertSeq(f.data)
			a.mu.Lock()
			a.frames++
			if ok {
				a.arrivals = append(a.arrivals, arrival{seq: seq, at: at})
			} else if a.err == nil {
				a.err = fmt.Errorf("alert event without a benchmark tweet id: %.120s", f.data)
			}
			a.mu.Unlock()
		}
	}()
	return a, nil
}

// count is how many alerts have arrived so far.
func (a *alertReader) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.arrivals)
}

// received is how many events of any kind have arrived so far.
func (a *alertReader) received() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.frames
}

// since returns the alerts that arrived after the first `from`, and the
// stream's error if it broke.
func (a *alertReader) since(from int) ([]arrival, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]arrival(nil), a.arrivals[from:]...), a.err
}

// close ends the subscription and waits for the reader goroutine.
func (a *alertReader) close() {
	a.cancel()
	<-a.done
}
