package ingestlog

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentReader feeds arbitrary bytes to the reader and the recovery
// path as a segment file. Whatever the bytes, three invariants must
// hold:
//
//  1. neither the reader nor recovery panics;
//  2. the reader yields exactly the longest checksum-valid frame prefix
//     (verified by an independent re-scan in the test) — a record
//     failing its checksum is never delivered;
//  3. the reader always reports a usable resume offset — base + records
//     delivered — and recovery resumes appending at that same offset.
func FuzzSegmentReader(f *testing.F) {
	// Seed 1: a well-formed two-record segment.
	var seg bytes.Buffer
	var hdr [segmentHdrLen]byte
	putSegmentHeader(hdr[:], 0, 0)
	seg.Write(hdr[:])
	for _, p := range [][]byte{[]byte("hello world"), []byte(`{"id_str":"1","text":"hi"}`)} {
		frame := make([]byte, frameSize(len(p)))
		putFrame(frame, p)
		seg.Write(frame)
	}
	f.Add(seg.Bytes())
	// Seed 2: torn tail (half a record).
	f.Add(seg.Bytes()[:seg.Len()-5])
	// Seed 3: torn header.
	f.Add([]byte(segmentMagic + "\x00\x01"))
	// Seed 4: empty file.
	f.Add([]byte{})
	// Seed 5: bit-flipped payload.
	flipped := append([]byte(nil), seg.Bytes()...)
	flipped[segmentHdrLen+6] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		pdir := filepath.Join(dir, "p000")
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pdir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Independent oracle: the longest valid frame prefix, scanned with
		// fresh logic so a reader bug cannot hide behind shared code paths.
		headerOK := len(data) >= segmentHdrLen &&
			string(data[:4]) == segmentMagic &&
			binary.BigEndian.Uint16(data[4:6]) == segmentVersion &&
			binary.BigEndian.Uint16(data[6:8]) == 0
		var base int64
		var want [][]byte
		if headerOK {
			base = int64(binary.BigEndian.Uint64(data[8:16]))
			pos := segmentHdrLen
			for {
				if pos+4 > len(data) {
					break
				}
				n := int(binary.BigEndian.Uint32(data[pos:]))
				if n > maxRecordLen || pos+4+n+8 > len(data) {
					break
				}
				payload := data[pos+4 : pos+4+n]
				if fnv64a(payload) != binary.BigEndian.Uint64(data[pos+4+n:]) {
					break
				}
				want = append(want, payload)
				pos += 4 + n + 8
			}
		}

		r, err := OpenPartitionReader(dir, 0)
		if err != nil {
			if headerOK {
				t.Fatalf("reader rejected a segment with a valid header: %v", err)
			}
			return
		}
		defer r.Close()
		var delivered int
		for {
			payload, off, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// A single segment is always the tail: invalid frames are
				// torn-tail EOF, never CorruptError.
				t.Fatalf("unexpected reader error: %v", err)
			}
			if delivered >= len(want) {
				t.Fatalf("reader delivered %d records, oracle found %d", delivered+1, len(want))
			}
			if off != base+int64(delivered) {
				t.Fatalf("offset %d delivered at position %d (base %d)", off, delivered, base)
			}
			if !bytes.Equal(payload, want[delivered]) {
				t.Fatalf("record %d diverged from the oracle", delivered)
			}
			delivered++
		}
		if delivered != len(want) {
			t.Fatalf("reader delivered %d records, oracle found %d", delivered, len(want))
		}
		if got := r.NextOffset(); got != base+int64(delivered) {
			t.Fatalf("resume offset %d, want %d", got, base+int64(delivered))
		}

		// Recovery must land on the same resume offset and accept appends.
		l, err := Open(Options{Dir: dir, Partitions: 1, Fsync: FsyncOff})
		if err != nil {
			if headerOK {
				t.Fatalf("recovery rejected a segment with a valid header: %v", err)
			}
			return
		}
		defer l.Close()
		if !headerOK {
			return // the torn file was dropped; offsets restart at 0
		}
		if got := l.Stats()[0].Appended; got != base+int64(delivered)-1 {
			t.Fatalf("recovery resumed at offset %d, reader resume offset %d", got+1, base+int64(delivered))
		}
		if _, err := l.Append(0, []byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
