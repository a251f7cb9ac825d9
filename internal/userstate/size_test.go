package userstate

import (
	"testing"
	"unsafe"
)

// The store holds up to Config.MaxUsers of these (100k by default), so
// every byte of padding multiplies by the population: 8 bytes are 0.8 MB
// at the default cap. 216 = the 200 bytes of state the record has always
// carried plus the session window's derived state (oldest time, head
// index and running aggressive count; the order flag fits the tail
// padding). The field order is
// checked by redvet's fieldalign analyzer; this pin makes a regression
// a visible diff. On a field change: re-pack (largest alignment first),
// re-run `go run ./cmd/redvet ./...`, and update the pin together.
func TestRecordSizePinned(t *testing.T) {
	const want = 216 // bytes on 64-bit, padding-optimal under the gc sizing model
	if got := unsafe.Sizeof(record{}); got != want {
		t.Fatalf("unsafe.Sizeof(record{}) = %d, pinned at %d: re-pack the fields and update the pin", got, want)
	}
}
