package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"redhanded/internal/feature"
	"redhanded/internal/norm"
	"redhanded/internal/stream"
)

// Checkpointing: a deployed detector must survive restarts without losing
// the incrementally learned state. A checkpoint captures the streaming
// model, the normalizer statistics, the adaptive BoW vocabulary, and the
// evaluation counters; restoring into a pipeline with the same Options
// resumes detection exactly where it stopped. The ARF's encoding includes
// its drift detectors, background trees, and RNG state, so a restored
// forest reacts to future drift exactly as the original would have.

// checkpointState is the gob payload.
type checkpointState struct {
	ModelKind string
	ModelBlob []byte
	StatsBlob []byte
	BoWBlob   []byte
	Processed int64
	// Evaluation counters (confusion matrix cells, row-major).
	EvalK      int
	EvalCells  []int64
	PredCounts []int64
	// UserStateBlob is the sharded user-state store (sessions, offenses,
	// escalation scores, CLOCK order) in its own versioned, checksummed
	// encoding. Empty in checkpoints written before the store existed;
	// restoring such a checkpoint leaves the store fresh.
	UserStateBlob []byte
	// LogOffset is the applied ingest-log offset plus one, so that gob's
	// zero-value elision makes checkpoints written before the ingest log
	// existed (field absent, decodes as 0) restore to the fresh state -1.
	LogOffset int64
}

// Checkpoint serializes the pipeline's learned state.
func (p *Pipeline) Checkpoint(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	kind, err := stream.ModelKindOf(p.model)
	if err != nil {
		return err
	}
	modelBlob, err := p.model.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: checkpoint model: %w", err)
	}
	statsBlob, err := p.normalizer.Stats.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: checkpoint stats: %w", err)
	}
	bowBlob, err := p.extractor.BoW().MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: checkpoint BoW: %w", err)
	}
	usersBlob, err := p.users.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: checkpoint user state: %w", err)
	}
	st := checkpointState{
		ModelKind:     kind,
		ModelBlob:     modelBlob,
		StatsBlob:     statsBlob,
		BoWBlob:       bowBlob,
		UserStateBlob: usersBlob,
		Processed:     p.processed,
		LogOffset:     p.logOffset + 1,
		EvalK:         p.evaluator.Matrix().NumClasses(),
		PredCounts:    append([]int64(nil), p.predCounts...),
	}
	k := st.EvalK
	st.EvalCells = make([]int64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			st.EvalCells[i*k+j] = p.evaluator.Matrix().Count(i, j)
		}
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// Restore loads a checkpoint into the pipeline. The pipeline must have
// been built with Options compatible with the checkpoint (same model kind
// and class count). Every field is checked and every blob decoded before
// anything is applied, so a Restore that fails leaves the pipeline as it
// was.
func (p *Pipeline) Restore(r io.Reader) error {
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: read checkpoint: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	kind, err := stream.ModelKindOf(p.model)
	if err != nil {
		return err
	}
	if kind != st.ModelKind {
		return fmt.Errorf("core: checkpoint is for model %s, pipeline uses %s", st.ModelKind, kind)
	}
	k := p.evaluator.Matrix().NumClasses()
	if st.EvalK != k {
		return fmt.Errorf("core: checkpoint has %d classes, pipeline has %d", st.EvalK, k)
	}
	if len(st.EvalCells) != k*k || len(st.PredCounts) != k || st.Processed < 0 || st.LogOffset < 0 {
		return fmt.Errorf("core: malformed checkpoint (%d confusion cells and %d prediction counts for %d classes, %d processed, log offset %d)",
			len(st.EvalCells), len(st.PredCounts), k, st.Processed, st.LogOffset-1)
	}
	model := newModel(p.opts)
	if err := model.UnmarshalBinary(st.ModelBlob); err != nil {
		return fmt.Errorf("core: restore model: %w", err)
	}
	stats := norm.NewFeatureStats(p.normalizer.Stats.Dim())
	if err := stats.UnmarshalBinary(st.StatsBlob); err != nil {
		return fmt.Errorf("core: restore stats: %w", err)
	}
	// The BoW (its versions key the extraction cache) and the user store
	// (metrics hold it) restore in place, each all or nothing: the BoW blob
	// is tried on a throwaway first, so only the store's step can fail.
	if err := feature.NewAdaptiveBoW(feature.BoWConfig{}).UnmarshalBinary(st.BoWBlob); err != nil {
		return fmt.Errorf("core: restore BoW: %w", err)
	}
	if len(st.UserStateBlob) > 0 {
		if err := p.users.UnmarshalBinary(st.UserStateBlob); err != nil {
			return fmt.Errorf("core: restore user state: %w", err)
		}
	}
	if err := p.extractor.BoW().UnmarshalBinary(st.BoWBlob); err != nil {
		return fmt.Errorf("core: restore BoW: %w", err)
	}
	p.model = model
	p.normalizer.Stats = stats
	p.processed = st.Processed
	p.logOffset = st.LogOffset - 1
	copy(p.predCounts, st.PredCounts)
	p.evaluator.Matrix().Reset()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.evaluator.Matrix().AddN(i, j, st.EvalCells[i*k+j])
		}
	}
	// The restored model shares no tree with the published snapshot.
	p.publishLocked(p.model.CompileSnapshot(nil))
	return nil
}
