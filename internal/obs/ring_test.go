package obs

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func testEntry(traceID uint64, id string) *[entryWords]uint64 {
	sp := &Span{traceID: traceID}
	sp.SetID(id)
	sp.dur[StageExtract] = int64(traceID) * 10
	var w [entryWords]uint64
	encodeEntry(&w, sp, 0, int64(traceID)*100)
	return &w
}

func TestEntryCodecRoundTrip(t *testing.T) {
	sp := &Span{traceID: 77, shard: 3, start: 1000}
	sp.SetID("roundtrip-id")
	sp.dur[StageQueue] = 11
	sp.dur[StageMerge] = 99
	var w [entryWords]uint64
	encodeEntry(&w, sp, 5000, 12345)
	e := decodeEntry(&w)
	if e.TraceID != 77 || e.Shard != 3 || e.ID != "roundtrip-id" {
		t.Fatalf("decoded = %+v", e)
	}
	if e.StartUnixNano != 6000 || e.TotalNanos != 12345 {
		t.Fatalf("times = %d/%d, want 6000/12345", e.StartUnixNano, e.TotalNanos)
	}
	if e.Stages[StageQueue] != 11 || e.Stages[StageMerge] != 99 {
		t.Fatalf("stages = %v", e.Stages)
	}
}

// A ring holds exactly its capacity of most-recent entries after wrapping,
// in order.
func TestRingWraparound(t *testing.T) {
	r := newRing(8)
	const total = 37
	for i := 1; i <= total; i++ {
		r.append(testEntry(uint64(i), fmt.Sprintf("t-%d", i)))
	}
	got := r.snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot len = %d, want 8 (ring capacity)", len(got))
	}
	for i, e := range got {
		want := uint64(total - 8 + 1 + i)
		if e.TraceID != want || e.ID != fmt.Sprintf("t-%d", want) {
			t.Fatalf("entry %d = %+v, want trace %d", i, e, want)
		}
	}
	// Non-power-of-two sizes round up.
	if r2 := newRing(5); r2.size != 8 {
		t.Fatalf("newRing(5) size = %d, want 8", r2.size)
	}
}

// A snapshot racing the producer returns only whole entries. Every word of
// entry v holds v, so an entry mixing two writes shows unequal words. The
// producer overwrites entry idx-size's slot while it writes entry idx, so a
// snapshot must drop the oldest entry it copied once that write has begun.
func TestRingSnapshotNeverTorn(t *testing.T) {
	r := newRing(4)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var w [entryWords]uint64
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range w {
				w[i] = v
			}
			r.append(&w)
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
			whole := uint64(e.StartUnixNano) == v && uint64(e.TotalNanos) == v && e.Shard == int(v&0xff)
			for _, d := range e.Stages {
				whole = whole && uint64(d) == v
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
