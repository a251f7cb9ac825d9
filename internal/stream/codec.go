package stream

import (
	"fmt"
	"sort"
	"sync"
)

// The model codec registry. Every model kind that crosses a process
// boundary — cluster broadcast, accumulator deltas shipped back to the
// driver, core checkpoints — registers a Codec here, keyed by a stable wire
// tag. The transport, checkpoint, and serving layers operate purely on the
// registry: adding a new model kind means implementing Model (plus,
// optionally, PartitionedModel) and calling RegisterCodec from an init — no
// switch in any other layer grows a new branch.

// Model is what every engine needs of a streaming classifier: it crosses
// process boundaries (RemoteTrainable — broadcast, accumulator deltas,
// checkpoints) and its prediction function flattens into an immutable
// Compiled snapshot (Compilable — the only form the classify step reads).
// Every registered kind is both, so the pipeline, the engines and the codec
// registry all speak this one type and none of them asserts at run time.
type Model interface {
	RemoteTrainable
	Compilable
}

// Codec describes how one model kind crosses process boundaries.
type Codec struct {
	// Kind is the stable wire tag negotiated in the cluster hello and
	// written into checkpoints.
	Kind string
	// New returns an empty model of this kind, ready for UnmarshalBinary
	// (or UnmarshalParts when the model is partitioned).
	New func() Model
}

var (
	codecMu sync.RWMutex
	codecs  = make(map[string]Codec)
)

// RegisterCodec adds a model codec to the registry. It panics on an empty
// kind, a nil constructor, or a duplicate registration — all programmer
// errors caught at init time.
func RegisterCodec(c Codec) {
	if c.Kind == "" || c.New == nil {
		panic("stream: RegisterCodec needs a kind and a constructor")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.Kind]; dup {
		panic(fmt.Sprintf("stream: model kind %q registered twice", c.Kind))
	}
	codecs[c.Kind] = c
}

func lookupCodec(kind string) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[kind]
	return c, ok
}

// KnownKind reports whether kind names a model this build can decode —
// the executor side of the cluster hello negotiation, so a driver running
// a newer model kind fails fast with a clear error instead of a mid-run
// decode failure.
func KnownKind(kind string) bool {
	_, ok := lookupCodec(kind)
	return ok
}

// KnownKinds returns every registered kind tag, sorted.
func KnownKinds() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	kinds := make([]string, 0, len(codecs))
	for k := range codecs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ModelKindOf returns the protocol tag for a remote-trainable model,
// validating that the kind the model claims is actually registered.
func ModelKindOf(m RemoteTrainable) (string, error) {
	kind := m.Kind()
	if !KnownKind(kind) {
		return "", fmt.Errorf("stream: model %T reports unregistered kind %q", m, kind)
	}
	return kind, nil
}

// DecodeModel reconstructs a model of the given kind from its serialized
// state (the executor side of the cluster protocol).
func DecodeModel(kind string, data []byte) (Model, error) {
	c, ok := lookupCodec(kind)
	if !ok {
		return nil, fmt.Errorf("stream: unknown model kind %q", kind)
	}
	m := c.New()
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}

// PartitionedModel is a RemoteTrainable whose broadcast state splits into
// independently-versioned parts (the Adaptive Random Forest's member
// slots). The driver hashes each part and ships only the parts whose hash
// a node does not already hold, so a steady-state broadcast costs the
// header plus the changed parts instead of the whole model.
type PartitionedModel interface {
	RemoteTrainable
	// MarshalParts serializes the broadcast state: a header (configuration
	// and per-part metadata, always shipped when anything changed) plus one
	// blob per part.
	MarshalParts() (header []byte, parts [][]byte, err error)
	// UnmarshalParts restores a model from a header and the complete part
	// set, replacing the receiver's state.
	UnmarshalParts(header []byte, parts [][]byte) error
	// PatchParts applies a delta onto an already-restored model: the header
	// plus the parts at the given indexes. It must fail (so the session can
	// answer NeedResync) when the patch references state the receiver does
	// not hold.
	PatchParts(header []byte, idx []int, parts [][]byte) error
}

// DecodeModelParts reconstructs a partitioned model of the given kind from
// a header and its complete part set.
func DecodeModelParts(kind string, header []byte, parts [][]byte) (Model, error) {
	c, ok := lookupCodec(kind)
	if !ok {
		return nil, fmt.Errorf("stream: unknown model kind %q", kind)
	}
	m := c.New()
	pm, ok := m.(PartitionedModel)
	if !ok {
		return nil, fmt.Errorf("stream: model kind %q is not partitioned", kind)
	}
	if err := pm.UnmarshalParts(header, parts); err != nil {
		return nil, err
	}
	return m, nil
}

// Hash64 is the registry's stable content hash (FNV-64a) over a serialized
// blob. The cluster protocol's version handshake elides any payload whose
// hash the peer already holds.
func Hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// HashModelParts hashes a partitioned model's broadcast state: one hash
// per part (the per-part elision keys) and a whole-model hash mixing the
// header with every part hash (the elide-everything key).
func HashModelParts(header []byte, parts [][]byte) (whole uint64, partHashes []uint64) {
	partHashes = make([]uint64, len(parts))
	whole = Hash64(header)
	for i, p := range parts {
		partHashes[i] = Hash64(p)
		whole = (whole ^ partHashes[i]) * 1099511628211
	}
	return whole, partHashes
}
