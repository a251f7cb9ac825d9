package obs

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"
)

func testSpan(traceID uint64, id string) *Span {
	sp := &Span{traceID: traceID}
	sp.SetID(id)
	sp.dur[StageExtract] = int64(traceID) * 10
	return sp
}

// A ring holds exactly its capacity of most-recent entries after wrapping,
// in order.
func TestRingWraparound(t *testing.T) {
	r := newRing(8)
	const total = 37
	for i := 1; i <= total; i++ {
		r.append(testSpan(uint64(i), fmt.Sprintf("t-%d", i)), 0, int64(i)*100)
	}
	got := r.snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot len = %d, want 8 (ring capacity)", len(got))
	}
	for i, e := range got {
		want := uint64(total - 8 + 1 + i)
		if e.TraceID != want || e.ID != fmt.Sprintf("t-%d", want) || e.TotalNanos != int64(want)*100 {
			t.Fatalf("entry %d = %+v, want trace %d", i, e, want)
		}
	}
	// Non-power-of-two sizes round up.
	if r2 := newRing(5); len(r2.entries) != 8 {
		t.Fatalf("newRing(5) holds %d entries, want 8", len(r2.entries))
	}
}

// A snapshot racing the producer returns only whole entries. Every field
// of entry v holds v, so an entry mixing two appends shows unequal
// fields.
func TestRingSnapshotNeverTorn(t *testing.T) {
	r := newRing(4)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sp Span
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			sp.traceID, sp.shard = v, uint8(v)
			sp.SetID(strconv.FormatUint(v, 10))
			for i := range sp.dur {
				sp.dur[i] = int64(v)
			}
			r.append(&sp, int64(v), int64(v))
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	var entries, torn int
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for _, e := range r.snapshot() {
			entries++
			v := e.TraceID
			whole := uint64(e.StartUnixNano) == v && uint64(e.TotalNanos) == v && e.Shard == int(v&0xff) &&
				e.ID == strconv.FormatUint(v, 10) && len(e.Stages) == int(NumStages)
			for _, st := range e.Stages {
				whole = whole && uint64(st.Nanos) == v
			}
			if !whole {
				torn++
			}
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d snapshot entries were torn", torn, entries)
	}
}

// Each shard's capture ring keeps its own newest captures, however busy
// the other shards are, and SlowTraces merges them oldest first.
func TestSlowRingWraparoundKeepsNewest(t *testing.T) {
	tr := New(Config{Shards: 2, SlowBudget: time.Nanosecond, slowCap: 4})
	var perShard [2][]uint64 // trace IDs finished on each shard, in order
	for i := 1; i <= 17; i++ {
		shard := 0
		if i%3 == 0 {
			shard = 1
		}
		sp := tr.Begin(shard)
		sp.SetID(fmt.Sprintf("s-%d", i))
		perShard[shard] = append(perShard[shard], sp.traceID)
		sp.Finish()
	}
	var want []uint64
	for _, ids := range perShard {
		want = append(want, ids[len(ids)-4:]...)
	}
	slices.Sort(want)
	got := tr.SlowTraces().Traces
	if len(got) != len(want) {
		t.Fatalf("SlowTraces holds %d captures, want %d", len(got), len(want))
	}
	for i, e := range got {
		wantShard := 0
		if want[i]%3 == 0 { // trace IDs count from 1 in Begin order, so ID i is span i
			wantShard = 1
		}
		if e.TraceID != want[i] || e.ID != fmt.Sprintf("s-%d", want[i]) || e.Shard != wantShard {
			t.Fatalf("capture %d = %+v, want trace %d on shard %d (newest per shard, merged oldest first)",
				i, e, want[i], wantShard)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDurString(t *testing.T) {
	if s := DurString(int64(1500 * time.Microsecond)); s != "1.5ms" {
		t.Fatalf("DurString = %q", s)
	}
}
