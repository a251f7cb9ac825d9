package ingestlog

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testOptions(dir string) Options {
	return Options{Dir: dir, Partitions: 1, SegmentBytes: 256, Fsync: FsyncOff}
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, "padpadpadpad"))
}

// appendN writes n known payloads to partition 0 and closes the log.
func appendN(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		off, err := l.Append(0, payloadFor(i))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("append %d got offset %d", i, off)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAll drains partition 0 and asserts offsets are dense from 0.
func readAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out [][]byte
	for {
		p, off, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(out)) {
			t.Fatalf("offset %d at position %d", off, len(out))
		}
		out = append(out, append([]byte(nil), p...))
	}
}

func TestAppendReadRoundTripAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	const n = 40 // SegmentBytes=256 forces several rolls
	appendN(t, dir, n)

	names, err := segmentFiles(filepath.Join(dir, "p000"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	got := readAll(t, dir)
	if len(got) != n {
		t.Fatalf("read %d records, wrote %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadFor(i)) {
			t.Fatalf("record %d: got %q want %q", i, p, payloadFor(i))
		}
	}
}

func TestReopenResumesOffsets(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 10)

	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Stats()[0].Appended; got != 9 {
		t.Fatalf("appended offset after reopen = %d, want 9", got)
	}
	off, err := l.Append(0, payloadFor(10))
	if err != nil {
		t.Fatal(err)
	}
	if off != 10 {
		t.Fatalf("append after reopen got offset %d, want 10", off)
	}
	l.Close()
	if got := readAll(t, dir); len(got) != 11 {
		t.Fatalf("read %d records after reopen-append, want 11", len(got))
	}
}

func TestSeekTo(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 30)
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, want := range []int64{0, 7, 29, 13, 30, 0} {
		if err := r.SeekTo(want); err != nil {
			t.Fatalf("seek %d: %v", want, err)
		}
		p, off, err := r.Next()
		if want == 30 {
			if err != io.EOF {
				t.Fatalf("seek past end: got %v, want EOF", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seek %d: next: %v", want, err)
		}
		if off != want || !bytes.Equal(p, payloadFor(int(want))) {
			t.Fatalf("seek %d landed on offset %d payload %q", want, off, p)
		}
	}
}

func TestPartitionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 1)
	if _, err := Open(Options{Dir: dir, Partitions: 2, Fsync: FsyncOff}); err == nil {
		t.Fatal("opening a 1-partition log with 2 partitions should fail")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncOff, FsyncInterval, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := testOptions(dir)
			opts.Fsync = policy
			opts.FsyncEvery = time.Millisecond
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, err := l.Append(0, payloadFor(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, dir); len(got) != 20 {
				t.Fatalf("%s: read %d records, want 20", policy, len(got))
			}
		})
	}
}

func TestIntervalBackpressure(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = time.Hour // never ticks during the test
	opts.MaxUnsynced = 64
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var stalled bool
	for i := 0; i < 100; i++ {
		if _, err := l.Append(0, payloadFor(i)); err != nil {
			if err != ErrBackpressure {
				t.Fatalf("append %d: %v", i, err)
			}
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("append never stalled with a 64-byte unsynced budget")
	}
	// An explicit sync drains the budget and appends flow again.
	l.SyncAll()
	if _, err := l.Append(0, []byte("after-sync")); err != nil {
		t.Fatalf("append after SyncAll: %v", err)
	}
}

// TestIngestLogCrashRecoveryMatrix truncates the tail segment at every
// byte offset of the final record's frame and asserts that recovery
// drops exactly the torn record — committed records all survive, reads
// and appends resume at the right offset.
func TestIngestLogCrashRecoveryMatrix(t *testing.T) {
	srcDir := t.TempDir()
	const n = 12 // spans several 256-byte segments
	appendN(t, srcDir, n)

	pdir := filepath.Join(srcDir, "p000")
	names, err := segmentFiles(pdir)
	if err != nil {
		t.Fatal(err)
	}
	tailName := names[len(names)-1]
	tail, err := os.ReadFile(filepath.Join(pdir, tailName))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final record's frame in the tail segment.
	var frameStart int64 = segmentHdrLen
	var inTail int64
	for pos := int64(segmentHdrLen); ; {
		_, next, ok := frameAt(tail, pos)
		if !ok {
			break
		}
		frameStart = pos
		inTail++
		pos = next
	}
	if inTail == 0 {
		t.Fatal("tail segment holds no records; lower SegmentBytes")
	}
	if frameStart == int64(len(tail)) {
		t.Fatal("no final frame found")
	}

	for cut := frameStart; cut < int64(len(tail)); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(srcDir)); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, "p000", tailName), cut); err != nil {
				t.Fatal(err)
			}

			// The standalone reader sees the torn tail as end-of-log and
			// must deliver every committed record.
			got := readAll(t, dir)
			if len(got) != n-1 {
				t.Fatalf("reader returned %d records, want %d (only the torn record dropped)", len(got), n-1)
			}
			for i, p := range got {
				if !bytes.Equal(p, payloadFor(i)) {
					t.Fatalf("record %d corrupted after recovery: %q", i, p)
				}
			}

			// Recovery truncates the torn frame and resumes appending at
			// the dropped record's offset.
			l, err := Open(testOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			if gotOff := l.Stats()[0].Appended; gotOff != int64(n-2) {
				t.Fatalf("recovered appended offset = %d, want %d", gotOff, n-2)
			}
			off, err := l.Append(0, payloadFor(n-1))
			if err != nil {
				t.Fatal(err)
			}
			if off != int64(n-1) {
				t.Fatalf("post-recovery append got offset %d, want %d", off, n-1)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if final := readAll(t, dir); len(final) != n {
				t.Fatalf("after recovery+append read %d records, want %d", len(final), n)
			}
		})
	}
}

// TestCrashRecoveryTornHeader covers the narrower crash window where the
// newest segment died before its 16-byte header was complete: the file
// holds no committed records, so recovery drops it and the previous
// segment becomes the tail again.
func TestCrashRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 6)
	pdir := filepath.Join(dir, "p000")
	names, err := segmentFiles(pdir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn create: a new tail segment with half a header.
	torn := filepath.Join(pdir, segmentName(6))
	if err := os.WriteFile(torn, []byte(segmentMagic+"\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, dir); len(got) != 6 {
		t.Fatalf("reader returned %d records, want 6", len(got))
	}
	l, err := Open(testOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Stats()[0].Appended; got != 5 {
		t.Fatalf("appended offset = %d, want 5", got)
	}
	if off, err := l.Append(0, payloadFor(6)); err != nil || off != 6 {
		t.Fatalf("append after torn-header recovery: off=%d err=%v", off, err)
	}
	_ = names
}

// TestCorruptMidLogSurfacesResumeOffset flips a byte inside a committed,
// non-tail record: the reader must stop with a CorruptError carrying the
// first undelivered offset rather than yield a bad payload.
func TestCorruptMidLogSurfacesResumeOffset(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, 12)
	pdir := filepath.Join(dir, "p000")
	names, err := segmentFiles(pdir)
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(pdir, names[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record.
	data[segmentHdrLen+6] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPartitionReader(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, _, err = r.Next()
	ce, ok := err.(*CorruptError)
	if !ok {
		t.Fatalf("expected CorruptError, got %v", err)
	}
	if ce.Offset != 0 {
		t.Fatalf("resume offset = %d, want 0", ce.Offset)
	}
}

func TestPartitionForMatchesStableHash(t *testing.T) {
	// The partition function must stay a pure, stable function of
	// (userID, partitions): pin a few values so an accidental hash change
	// breaks loudly (stored logs would replay to the wrong shards).
	cases := map[string]int{"u1": 3, "u2": 2, "alice": 3, "": 1}
	for id, want := range cases {
		if got := PartitionFor(id, 4); got != want {
			t.Fatalf("PartitionFor(%q,4) = %d, want %d", id, got, want)
		}
	}
}

// TestStatsCountActivity: each partition counts its appends, appended
// bytes, fsyncs and backpressure stalls, and Stats reports them.
func TestStatsCountActivity(t *testing.T) {
	opts := testOptions(t.TempDir())
	opts.Partitions = 2
	opts.Fsync = FsyncAlways
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sizes [2]int64
	for i := 0; i < 5; i++ {
		if _, err := l.Append(i%2, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
		sizes[i%2] += frameSize(len(payloadFor(i)))
	}
	for i, ps := range l.Stats() {
		want := int64(3 - i) // partition 0 took appends 0, 2, 4
		if ps.Appends != want || ps.AppendedBytes != sizes[i] || ps.Fsyncs != want || ps.Stalls != 0 {
			t.Errorf("partition %d stats %+v, want %d appends of %d bytes, %d fsyncs", i, ps, want, sizes[i], want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	opts = testOptions(t.TempDir())
	opts.Fsync = FsyncInterval
	opts.FsyncEvery = time.Hour // never ticks during the test
	opts.MaxUnsynced = 1
	l, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(0, payloadFor(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, payloadFor(1)); err != ErrBackpressure {
		t.Fatalf("second append past a 1-byte budget: %v, want ErrBackpressure", err)
	}
	l.SyncAll()
	if ps := l.Stats()[0]; ps.Appends != 1 || ps.Stalls != 1 || ps.Fsyncs != 1 {
		t.Fatalf("interval stats %+v, want 1 append, 1 stall, 1 fsync", ps)
	}
}
