package obs

import (
	"testing"
	"unsafe"
)

// The span is pooled and carried through every traced tweet; its layout
// was hand-packed (field order is checked by redvet's fieldalign
// analyzer). This pin makes an accidental field addition or reorder a
// visible diff instead of a silent footprint regression. On a field change: re-pack the
// struct (largest alignment first), re-run `go run ./cmd/redvet ./...`,
// and update the pinned size here in the same commit.
func TestSpanSizePinned(t *testing.T) {
	const want = 168 // bytes on 64-bit, padding-free under the gc sizing model
	if got := unsafe.Sizeof(Span{}); got != want {
		t.Fatalf("unsafe.Sizeof(Span{}) = %d, pinned at %d: re-pack the fields and update the pin", got, want)
	}
}
