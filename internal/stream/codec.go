package stream

import "fmt"

// The model kinds that cross a process boundary — cluster broadcast,
// accumulator deltas shipped back to the driver, core checkpoints — are the
// three learners of this package, each under a stable wire tag. newModel is
// the one switch over them; the transport, checkpoint and serving layers go
// through the functions below and never name a kind.

// Model is what every engine needs of a streaming classifier: it crosses
// process boundaries (RemoteTrainable — broadcast, accumulator deltas,
// checkpoints) and its prediction function flattens into an immutable
// Compiled snapshot (Compilable — the only form the classify step reads).
// Every kind is both, so the pipeline, the engines and the codecs all speak
// this one type and none of them asserts at run time.
type Model interface {
	RemoteTrainable
	Compilable
}

// newModel returns an empty model of the given kind, ready for
// UnmarshalBinary, or nil for a kind this build does not know.
func newModel(kind string) Model {
	switch kind {
	case KindARF:
		return new(AdaptiveRandomForest)
	case KindHT:
		return new(HoeffdingTree)
	case KindSLR:
		return new(SLR)
	}
	return nil
}

// KnownKind reports whether kind names a model this build can decode —
// the executor side of the cluster hello negotiation, so a driver running
// a newer model kind fails fast with a clear error instead of a mid-run
// decode failure.
func KnownKind(kind string) bool { return newModel(kind) != nil }

// KnownKinds returns every kind tag, sorted.
func KnownKinds() []string { return []string{KindARF, KindHT, KindSLR} }

// ModelKindOf returns the protocol tag for a remote-trainable model,
// validating that the kind the model claims is one this build knows.
func ModelKindOf(m RemoteTrainable) (string, error) {
	kind := m.Kind()
	if !KnownKind(kind) {
		return "", fmt.Errorf("stream: model %T reports unknown kind %q", m, kind)
	}
	return kind, nil
}

// DecodeModel reconstructs a model of the given kind from its serialized
// state (the executor side of the cluster protocol).
func DecodeModel(kind string, data []byte) (Model, error) {
	m := newModel(kind)
	if m == nil {
		return nil, fmt.Errorf("stream: unknown model kind %q", kind)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}

// Hash64 is the stable content hash (FNV-64a) over a serialized blob: the
// key of a broadcast model, which the cluster driver ships only when it
// differs from the key the executor's session holds.
func Hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
