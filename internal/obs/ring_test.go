package obs

import (
	"fmt"
	"testing"
	"time"
)

func testEntry(traceID uint64, id string) *[entryWords]uint64 {
	sp := &Span{traceID: traceID}
	sp.SetID(id)
	sp.dur[StageExtract] = int64(traceID) * 10
	var w [entryWords]uint64
	encodeEntry(&w, sp, 0, int64(traceID)*100, traceID%7 == 0)
	return &w
}

func TestEntryCodecRoundTrip(t *testing.T) {
	sp := &Span{traceID: 77, shard: 3, start: 1000}
	sp.SetID("roundtrip-id")
	sp.dur[StageQueue] = 11
	sp.dur[StageMerge] = 99
	var w [entryWords]uint64
	encodeEntry(&w, sp, 5000, 12345, true)
	e := decodeEntry(&w)
	if e.TraceID != 77 || e.Shard != 3 || e.ID != "roundtrip-id" || !e.Slow {
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
// in order, and snapshot honours the max argument.
func TestRingWraparound(t *testing.T) {
	r := newRing(8)
	const total = 37
	for i := 1; i <= total; i++ {
		r.append(testEntry(uint64(i), fmt.Sprintf("t-%d", i)))
	}
	if r.count() != total {
		t.Fatalf("count = %d, want %d", r.count(), total)
	}
	got := r.snapshot(0)
	if len(got) != 8 {
		t.Fatalf("snapshot len = %d, want 8 (ring capacity)", len(got))
	}
	for i, e := range got {
		want := uint64(total - 8 + 1 + i)
		if e.TraceID != want || e.ID != fmt.Sprintf("t-%d", want) {
			t.Fatalf("entry %d = %+v, want trace %d", i, e, want)
		}
	}
	if got := r.snapshot(3); len(got) != 3 || got[2].TraceID != total {
		t.Fatalf("snapshot(3) = %+v, want 3 newest ending at %d", got, total)
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
		for _, e := range r.snapshot(0) {
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

func TestSlowRingWraparoundKeepsNewest(t *testing.T) {
	r := newSlowRing(4)
	for i := 1; i <= 11; i++ {
		r.append(testEntry(uint64(i), fmt.Sprintf("s-%d", i)))
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("slow snapshot len = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(8 + i); e.TraceID != want {
			t.Fatalf("slow entry %d = trace %d, want %d (oldest-first)", i, e.TraceID, want)
		}
	}
}

// Reservoir sampling must be deterministic for a fixed seed and offer
// sequence, and different seeds should (for this sequence) disagree.
func TestReservoirDeterminism(t *testing.T) {
	sample := func(seed uint64) []uint64 {
		rv := newReservoir(4, seed)
		for i := 1; i <= 500; i++ {
			rv.offer(testEntry(uint64(i), "x"))
		}
		var ids []uint64
		for _, e := range rv.snapshot() {
			ids = append(ids, e.TraceID)
		}
		return ids
	}
	a, b := sample(42), sample(42)
	if len(a) != 4 {
		t.Fatalf("reservoir kept %d entries, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := sample(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 selected identical exemplars %v — RNG not seeded", a)
	}
}

// Tracer-level determinism: two tracers fed identical span sequences with
// the same seed expose identical exemplar trace IDs.
func TestTracerExemplarDeterminism(t *testing.T) {
	run := func() []uint64 {
		tr := New(Config{Enabled: true, SlowBudget: -1, exemplars: 3, seed: 7})
		for i := 0; i < 200; i++ {
			sp := tr.Begin(0)
			sp.SetID("d")
			sp.Finish()
		}
		var ids []uint64
		for _, e := range tr.Snapshot(1).Exemplars {
			ids = append(ids, e.TraceID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("exemplar counts = %d/%d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("exemplar selection diverged: %v vs %v", a, b)
		}
	}
}

func TestReservoirFillPhase(t *testing.T) {
	rv := newReservoir(8, 1)
	for i := 1; i <= 5; i++ {
		rv.offer(testEntry(uint64(i), "f"))
	}
	got := rv.snapshot()
	if len(got) != 5 {
		t.Fatalf("fill-phase snapshot = %d entries, want all 5", len(got))
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
