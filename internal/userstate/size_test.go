package userstate

import (
	"testing"
	"unsafe"
)

// The slab holds up to Config.MaxUsers of these (100k by default), so
// every byte of padding multiplies by the population: 8 bytes are 0.8 MB
// at the default cap. 224 = two 40-byte keys (23 bytes in place, a length
// and a heap fallback), the window slice, twelve words of state (the ID
// hash among them), five int32 counters and positions, and the order
// flag; the newest event time, suspension latch and CLOCK bit live in
// the CLOCK ring entry and the verdict ring in the slab chunk. The field
// order is checked by redvet's fieldalign analyzer; this pin makes a
// regression a visible diff. On a field change: re-pack (largest
// alignment first), re-run `go run ./cmd/redvet ./...`, and update the
// pin together.
func TestRecordSizePinned(t *testing.T) {
	const want = 224 // bytes on 64-bit, padding-optimal under the gc sizing model
	if got := unsafe.Sizeof(record{}); got != want {
		t.Fatalf("unsafe.Sizeof(record{}) = %d, pinned at %d: re-pack the fields and update the pin", got, want)
	}
}
