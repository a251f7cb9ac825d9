package userstate

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// The files under testdata/ were written by this test, run with
// -update-window-golden on commit 0d1dcd9 — the last one whose store
// re-filtered and re-summed the whole window on every tweet. This file
// uses only the package's exported surface so it runs there unchanged.
//
//	window_parent.ckpt    the store's checkpoint after the first half of goldenStream
//	window_parent.golden  every outcome of the second half, continued from that state
//
// Together they pin three things across the rewrite: the checkpoint bytes
// this commit writes for the same history are the parent's, a parent
// checkpoint restores here, and from it the remaining stream yields the
// parent's outcomes bit for bit.
var updateWindowGolden = flag.Bool("update-window-golden", false, "rewrite testdata/window_parent.* from the code under test")

const (
	goldenCheckpoint = "testdata/window_parent.ckpt"
	goldenOutcomes   = "testdata/window_parent.golden"
)

// goldenStream is synthStream reshaped to load the window: two tweets in
// three come from 40 prolific accounts (windows of a dozen tweets, while
// the other 600 users keep the cap and the TTL busy), and it carries the
// disorder a real feed can: every ninth tweet is stamped up to ten minutes
// in the past, every eleventh repeats its predecessor's timestamp, every
// 53rd has none.
func goldenStream() []Observation {
	stream := synthStream(29, 6000)
	for i := range stream {
		if i%3 != 0 {
			stream[i].UserID = fmt.Sprintf("prolific%d", i*7919%40)
			stream[i].ScreenName = stream[i].UserID
		}
		switch {
		case i%9 == 8:
			stream[i].At = stream[i].At.Add(-time.Duration(i%600) * time.Second)
		case i%11 == 10:
			stream[i].At = stream[i-1].At
		case i%53 == 52:
			stream[i].At = time.Time{}
		}
	}
	return stream
}

// exactOutcomeKey renders an Outcome without rounding anything.
func exactOutcomeKey(out Outcome) string {
	k := fmt.Sprintf("off=%d susp=%v new=%v", out.Offenses, out.Suspended, out.NewlySuspended)
	if v := out.Session; v != nil {
		k += fmt.Sprintf(" S{%s %d..%d n=%d share=%x conf=%x}", v.UserID, v.WindowStart.UnixNano(), v.WindowEnd.UnixNano(),
			v.Tweets, math.Float64bits(v.AggressiveShare), math.Float64bits(v.MeanConfidence))
	}
	if v := out.Escalation; v != nil {
		k += fmt.Sprintf(" E{%s score=%x n=%d aggr=%d recent=%x sess=%d off=%d first=%d at=%d}", v.UserID,
			math.Float64bits(v.Score), v.Tweets, v.Aggressive, math.Float64bits(v.RecentShare),
			v.Sessions, v.Offenses, v.FirstSeen.UnixNano(), v.At.UnixNano())
	}
	return k
}

// outcomeLedger lists every outcome that carries a verdict or a new
// suspension by stream index, and closes with a digest over all of them.
func outcomeLedger(s *Store, stream []Observation) string {
	var b strings.Builder
	sum := sha256.New()
	verdicts := 0
	for i, o := range stream {
		out := s.Observe(o)
		key := exactOutcomeKey(out)
		fmt.Fprintf(sum, "%d %s\n", i, key)
		if out.Session != nil || out.Escalation != nil || out.NewlySuspended {
			fmt.Fprintf(&b, "%d %s\n", i, key)
			verdicts++
		}
	}
	fmt.Fprintf(&b, "outcomes=%d listed=%d sha256=%x\n", len(stream), verdicts, sum.Sum(nil))
	return b.String()
}

func TestWindowMatchesParentCommit(t *testing.T) {
	stream := goldenStream()
	cut := len(stream) / 2

	s := New(streamConfig())
	for _, o := range stream[:cut] {
		s.Observe(o)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if *updateWindowGolden {
		if err := os.WriteFile(goldenCheckpoint, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOutcomes, []byte(outcomeLedger(s, stream[cut:])), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	parentBlob, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, parentBlob) {
		t.Fatalf("checkpoint after %d observations is %d bytes and differs from the parent commit's %d", cut, len(blob), len(parentBlob))
	}
	want, err := os.ReadFile(goldenOutcomes)
	if err != nil {
		t.Fatal(err)
	}
	restored := New(streamConfig())
	if err := restored.UnmarshalBinary(parentBlob); err != nil {
		t.Fatal(err)
	}
	got := outcomeLedger(restored, stream[cut:])
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("outcomes continued from the parent's checkpoint diverge at ledger line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("outcome ledger has %d lines, the parent's %d", len(gl), len(wl))
	}
	if !strings.Contains(got, " S{") || !strings.Contains(got, " E{") {
		t.Fatalf("golden stream produced no session or no escalation verdict; the comparison is vacuous")
	}
}
