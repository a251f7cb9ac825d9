package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"redhanded/internal/serve"
)

// loader drives one server with one corpus. Sequence numbers are global to
// the loader, so no two tweets it ever sends share an id.
type loader struct {
	srv     *server
	corpus  *corpus
	kind    kind
	senders int
	perReq  int
	client  *http.Client
	alerts  *alertReader // firehose only
	seq     atomic.Uint64
}

func newLoader(srv *server, c *corpus, k kind) (*loader, error) {
	l := &loader{srv: srv, corpus: c, kind: k, senders: firehoseSenders(), perReq: ingestBatch}
	if k == kindClassify {
		l.senders, l.perReq = classifySenders(), 1
	}
	l.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: classifySenders()},
	}
	if k == kindFirehose {
		var err error
		if l.alerts, err = subscribeAlerts(srv.base); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.waitSubscribed(ctx, 1); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *loader) close() {
	if l.alerts != nil {
		l.alerts.close()
	}
	l.client.CloseIdleConnections()
}

// outcome is what one HTTP request did to the tweets it carried.
type outcome struct {
	accepted, rejected, malformed int
	failed                        bool // transport error or a status that is neither 200 nor 429
}

// send posts n tweets starting at seq: one NDJSON batch to /v1/ingest, or a
// single tweet to /v1/classify. body is the sender's reusable buffer.
func (l *loader) send(body *[]byte, seq uint64, n int) outcome {
	*body = l.corpus.appendBatch((*body)[:0], seq, n)
	path, payload := "/v1/ingest", *body
	if l.kind == kindClassify {
		path, payload = "/v1/classify", payload[:len(payload)-1]
	}
	resp, err := l.client.Post(l.srv.base+path, "application/x-ndjson", bytes.NewReader(payload))
	if err != nil {
		return outcome{failed: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return outcome{failed: true}
	}
	if l.kind == kindClassify {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusOK {
			return outcome{accepted: 1}
		}
		return outcome{rejected: 1}
	}
	var ir serve.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return outcome{failed: true}
	}
	io.Copy(io.Discard, resp.Body)
	return outcome{accepted: int(ir.Accepted), rejected: int(ir.Rejected), malformed: int(ir.Malformed)}
}

// resendFrom is the 429 protocol of /v1/ingest: accepted+malformed is a
// prefix of the batch, so exactly the lines after it are sent again. It
// returns how many leading tweets of the batch are settled.
func resendFrom(o outcome) int { return o.accepted + o.malformed }

// deliver is the closed-loop way to send n tweets starting at seq: send, and
// while the server refuses a suffix, wait retryPause and resend exactly that
// suffix. It gives up on a failed request or once deadline has passed (the
// zero deadline never passes) and returns the tally over all its sends and
// how many leading tweets were settled.
func (l *loader) deliver(body *[]byte, seq uint64, n int, deadline time.Time) (sum outcome, settled int) {
	for {
		o := l.send(body, seq+uint64(settled), n-settled)
		sum.accepted += o.accepted
		sum.rejected += o.rejected
		sum.malformed += o.malformed
		sum.failed = o.failed
		settled += resendFrom(o)
		if o.failed || settled >= n || (!deadline.IsZero() && !time.Now().Before(deadline)) {
			return sum, settled
		}
		time.Sleep(retryPause * time.Millisecond)
	}
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// request is the client-side record of one steady-phase request.
type request struct {
	due  time.Duration // offset from phase start
	late time.Duration // how long after due the generator actually sent it
	rtt  time.Duration
	outcome
}

// phase is everything measured over one timed phase, server side and client
// side, from its start to the moment the server had processed all it took.
type phase struct {
	start    time.Time
	elapsed  time.Duration
	offered  int64 // distinct tweets sent at least once
	firstSeq uint64

	accepted, rejected, malformed, failedReqs int64
	requests                                  []request // steady only
	verdicts                                  []sample  // steady only

	before, after serve.Stats
	cpuS          float64 // server CPU seconds over the phase
	genCPUS       float64 // this process's CPU seconds over the phase
	undelivered   int64   // alerts the server raised that never reached the SSE client
	steal         float64 // host steal ticks over the phase
	cpu0, gen0    float64 // CPU seconds of server and generator when the phase began
	steal0        float64 // host steal ticks when the phase began
}

func (p *phase) processed() int64 { return p.after.Processed - p.before.Processed }

// tps is tweets processed per wall second over the phase, drain included.
func (p *phase) tps() float64 { return float64(p.processed()) / p.elapsed.Seconds() }

// cpuUS is server CPU microseconds per processed tweet over the phase.
func (p *phase) cpuUS() float64 { return p.cpuS * 1e6 / float64(p.processed()) }

// failed counts the steady phase's failures in tweets: refused, malformed,
// lost in transport, accepted but never processed, or alerted but never
// delivered.
func (p *phase) failed(perReq int) int64 {
	lost := max(0, p.accepted-p.processed())
	return p.rejected + p.malformed + p.failedReqs*int64(perReq) + lost + p.undelivered
}

// begin snapshots the counters a phase is measured against. The server is
// drained at this point, so every later delta belongs to the phase.
func (l *loader) begin() (*phase, error) {
	before, err := l.srv.stats()
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(l.srv.pid())
	if err != nil {
		return nil, err
	}
	return &phase{before: before, firstSeq: l.seq.Load(), cpu0: cpu0, gen0: selfCPUSeconds(),
		start: time.Now(), steal0: hostSteal()}, nil
}

// end waits until the server has processed everything it accepted, stops the
// phase's clock there, and closes the books.
func (l *loader) end(p *phase) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	after, drainedAt, err := l.srv.waitDrained(ctx)
	p.steal = hostSteal() - p.steal0
	if err != nil {
		return err
	}
	p.after, p.elapsed = after, drainedAt.Sub(p.start)
	cpu1, err := cpuSeconds(l.srv.pid())
	if err != nil {
		return err
	}
	p.cpuS, p.genCPUS = cpu1-p.cpu0, selfCPUSeconds()-p.gen0
	if got := after.Accepted - p.before.Accepted; got != p.accepted {
		return fmt.Errorf("accounting mismatch: clients saw %d tweets accepted, server counted %d", p.accepted, got)
	}
	if after.Processed != after.Accepted {
		return fmt.Errorf("processed %d != accepted %d after drain", after.Processed, after.Accepted)
	}
	return nil
}

// steady is the latency segment of a round. With a rate it offers that many
// tweets/s for dur in an open loop (offer); with rate 0 it is one caller in
// conversation with the server (converse).
func (l *loader) steady(rate float64, dur time.Duration) (*phase, error) {
	alerts0 := 0
	if l.alerts != nil {
		alerts0 = l.alerts.count()
	}
	p, err := l.begin()
	if err != nil {
		return nil, err
	}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(l.perReq) / rate * float64(time.Second))
		l.offer(p, interval, int(dur/interval))
	} else {
		l.converse(p, dur)
	}
	for i := range p.requests {
		r := &p.requests[i]
		p.accepted += int64(r.accepted)
		p.rejected += int64(r.rejected)
		p.malformed += int64(r.malformed)
		if r.failed {
			p.failedReqs++
		}
		if l.kind == kindClassify && r.accepted == 1 {
			p.verdicts = append(p.verdicts, sample{due: r.due, latency: r.late + r.rtt})
		}
	}
	if err := l.end(p); err != nil {
		return nil, err
	}
	if l.alerts != nil {
		if err := l.collectAlerts(p, alerts0, interval); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// converse is one caller that sends its next request when the reply to the
// one before has arrived, for dur: the latency a caller of /v1/classify sees
// (the synchronous-classify leg). A closed loop, because that is what such
// callers are — and because an open loop of sub-millisecond requests on the
// reference box measured the host: with no steal reported, stretches in
// which every wake-up and syscall took three times as long built queues of
// 50-100 ms at a fifth of the nominal capacity (p50 0.36 -> 3 ms, p90 0.6 ->
// 20 ms between runs of one commit). One request in flight cannot queue, and
// a freeze delays one request, not every request that fell due during it.
func (l *loader) converse(p *phase, dur time.Duration) {
	var body []byte
	for sent := p.start; sent.Sub(p.start) < dur; sent = time.Now() {
		seq := l.seq.Add(1) - 1
		o := l.send(&body, seq, 1)
		p.requests = append(p.requests, request{due: sent.Sub(p.start), rtt: time.Since(sent), outcome: o})
	}
	p.offered = int64(len(p.requests))
}

// offer sends nReq requests in an open loop: request n is due at start +
// n*interval whatever happened to the requests before it, and every verdict
// is timed from its request's due time, so a stall is charged to every
// request it delays. Requests that have fallen behind are sent at no more
// than catchUp times the steady rate: when the hypervisor freezes the VM for
// 300 ms, the backlog would otherwise go out as one burst at whatever the
// connections carry, overrun the SSE subscriber's 256-event buffer, and the
// run would count the host's freeze as the server's lost alerts.
func (l *loader) offer(p *phase, interval time.Duration, nReq int) {
	l.seq.Add(uint64(nReq * l.perReq))
	p.requests = make([]request, nReq)
	p.offered = int64(nReq * l.perReq)

	// One pacer hands request numbers to whichever sender is free, each at
	// its due time. It sleeps in the kernel on a thread of its own: the Go
	// runtime's timers wake an idle process on whole milliseconds, which put
	// every request 0-1 ms behind schedule.
	slots := make(chan int)
	go func() {
		defer close(slots)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		earliest := p.start // the soonest the next request may leave
		for n := 0; n < nReq; n++ {
			leave := p.start.Add(time.Duration(n) * interval)
			if earliest.After(leave) {
				leave = earliest // behind schedule: no closer to the request before than the pace allows
			}
			sleepUntil(leave)
			earliest = time.Now().Add(interval / catchUp)
			slots <- n // waits while every sender is busy; the request is timed from its due time all the same
		}
	}()
	var wg sync.WaitGroup
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for n := range slots {
				r := &p.requests[n]
				r.due = time.Duration(n) * interval
				sent := time.Now()
				r.outcome = l.send(&body, p.firstSeq+uint64(n*l.perReq), l.perReq)
				r.late = sent.Sub(p.start) - r.due
				r.rtt = time.Since(sent)
			}
		}()
	}
	wg.Wait()
}

// settle waits until the SSE reader has received every event the server has
// put on the stream (this loader's reader is the server's only subscriber, so
// the server's streamed counter is the reader's target). The drain waits for
// processing, not for delivery: without this a segment would start with the
// subscriber's buffer still full of the segment before and lose its first
// alerts to it.
func (l *loader) settle() error {
	if l.alerts == nil {
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := l.srv.metrics()
		if err != nil {
			return err
		}
		streamed := int64(m.sums["redhanded_alerts_streamed_total"])
		if got := l.alerts.received(); got >= streamed {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("SSE reader received %d of the %d events the server streamed", got, streamed)
		}
		time.Sleep(time.Millisecond)
	}
}

// collectAlerts waits for the SSE stream to catch up with the alerts the
// server raised during the phase, then turns each alert into a
// verdict-latency sample measured from its request's due time.
func (l *loader) collectAlerts(p *phase, alerts0 int, interval time.Duration) error {
	raised := p.after.AlertsRaised - p.before.AlertsRaised
	if err := l.settle(); err != nil {
		return err
	}
	arrivals, err := l.alerts.since(alerts0)
	if err != nil {
		return fmt.Errorf("SSE stream: %w", err)
	}
	endSeq := l.seq.Load()
	for _, a := range arrivals {
		if a.seq >= endSeq {
			return fmt.Errorf("alert for tweet %d, but only %d were ever sent", a.seq, endSeq)
		}
		if a.seq < p.firstSeq {
			continue // a straggler of the phase before: the drain waits for processing, not for SSE delivery
		}
		due := time.Duration((a.seq-p.firstSeq)/uint64(l.perReq)) * interval
		p.verdicts = append(p.verdicts, sample{due: due, latency: a.at.Sub(p.start) - due})
	}
	p.undelivered = max(0, raised-int64(len(p.verdicts)))
	return nil
}

// saturate runs the senders back to back for dur in a closed loop: each
// sends its next batch as soon as the previous one is settled. A 429 makes
// the sender wait retryPause and resend exactly the rejected suffix. The
// phase's clock runs until the server has processed everything it accepted,
// so throughput counts tweets processed, not merely queued.
func (l *loader) saturate(dur time.Duration) (*phase, error) {
	alerts0 := 0
	if l.alerts != nil {
		alerts0 = l.alerts.count()
	}
	p, err := l.begin()
	if err != nil {
		return nil, err
	}
	deadline := p.start.Add(dur)
	var accepted, rejected, malformed, failed, offered atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for time.Now().Before(deadline) {
				seq := l.seq.Add(uint64(l.perReq)) - uint64(l.perReq)
				o, settled := l.deliver(&body, seq, l.perReq, deadline)
				accepted.Add(int64(o.accepted))
				rejected.Add(int64(o.rejected))
				malformed.Add(int64(o.malformed))
				if o.failed {
					failed.Add(1)
					settled = l.perReq // lost in transport, not "never taken"
				}
				offered.Add(int64(settled)) // a tail cut off by the deadline was never offered
			}
		}()
	}
	wg.Wait()
	p.accepted, p.rejected, p.malformed = accepted.Load(), rejected.Load(), malformed.Load()
	p.failedReqs, p.offered = failed.Load(), offered.Load()
	if err := l.end(p); err != nil {
		return nil, err
	}
	if l.alerts != nil {
		// Saturation may overrun the SSE subscriber's buffer; the server
		// then drops events by design (reported as serve.sse_dropped_share).
		// What did arrive must still be about tweets that were sent.
		if err := l.settle(); err != nil {
			return nil, err
		}
		arrivals, err := l.alerts.since(alerts0)
		if err != nil {
			return nil, fmt.Errorf("SSE stream: %w", err)
		}
		endSeq := l.seq.Load()
		for _, a := range arrivals {
			if a.seq >= endSeq {
				return nil, fmt.Errorf("alert for tweet %d, but only %d were ever sent", a.seq, endSeq)
			}
		}
	}
	return p, nil
}

// warm pushes n tweets through the real request path as fast as the server
// takes them and waits for them to be processed: models, pools, caches and
// connections are in their steady state before the first timed phase.
func (l *loader) warm(n int) error {
	var wg sync.WaitGroup
	errs := make(chan error, l.senders)
	first := l.seq.Add(uint64(n)) - uint64(n)
	var next atomic.Int64
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			for {
				off := int(next.Add(int64(l.perReq))) - l.perReq
				if off >= n {
					return
				}
				if o, _ := l.deliver(&body, first+uint64(off), min(l.perReq, n-off), time.Time{}); o.failed {
					errs <- fmt.Errorf("warm-up request failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, _, err := l.srv.waitDrained(ctx); err != nil {
		return err
	}
	return l.settle()
}
