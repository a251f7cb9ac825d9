package core

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"redhanded/internal/twitterdata"
)

func TestCheckpointRoundTrip(t *testing.T) {
	data := smallDataset(41, 3000, 1500, 300)
	opts := DefaultOptions()
	p := NewPipeline(opts)
	p.ProcessAll(data[:3000])

	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewPipeline(opts)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Processed() != p.Processed() {
		t.Fatalf("processed %d != %d", restored.Processed(), p.Processed())
	}
	if restored.Summary() != p.Summary() {
		t.Fatalf("summaries differ:\n%+v\n%+v", restored.Summary(), p.Summary())
	}
	if restored.Extractor().BoW().Size() != p.Extractor().BoW().Size() {
		t.Fatalf("BoW sizes differ")
	}

	// Both pipelines continue identically on the remaining stream.
	rest := data[3000:]
	p.ProcessAll(rest)
	restored.ProcessAll(rest)
	if restored.Summary() != p.Summary() {
		t.Fatalf("diverged after restore:\n%+v\n%+v", restored.Summary(), p.Summary())
	}
}

func TestCheckpointSLR(t *testing.T) {
	opts := DefaultOptions()
	opts.Model = ModelSLR
	p := NewPipeline(opts)
	p.ProcessAll(smallDataset(42, 500, 250, 50))
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(opts)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Summary() != p.Summary() {
		t.Fatalf("SLR checkpoint mismatch")
	}
}

func TestCheckpointARFRoundTrip(t *testing.T) {
	data := smallDataset(44, 2000, 1000, 200)
	opts := DefaultOptions()
	opts.Model = ModelARF
	opts.ARF.EnsembleSize = 5
	p := NewPipeline(opts)
	p.ProcessAll(data[:2000])

	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(opts)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Summary() != p.Summary() {
		t.Fatalf("summaries differ:\n%+v\n%+v", restored.Summary(), p.Summary())
	}

	// The checkpoint captures member trees, background trees, detector
	// state, and the structural RNG, so both forests must continue
	// identically — drift reactions included.
	rest := data[2000:]
	p.ProcessAll(rest)
	restored.ProcessAll(rest)
	if restored.Summary() != p.Summary() {
		t.Fatalf("ARF diverged after restore:\n%+v\n%+v", restored.Summary(), p.Summary())
	}
	before := p.Model().(interface{ DriftsDetected() int }).DriftsDetected()
	after := restored.Model().(interface{ DriftsDetected() int }).DriftsDetected()
	if before != after {
		t.Fatalf("drift counters diverged after restore: %d vs %d", before, after)
	}
}

func TestRestoreMismatches(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(smallDataset(43, 200, 100, 20))
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong model kind.
	slrOpts := DefaultOptions()
	slrOpts.Model = ModelSLR
	if err := NewPipeline(slrOpts).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("model-kind mismatch accepted")
	}

	// Wrong class count.
	twoOpts := DefaultOptions()
	twoOpts.Scheme = TwoClass
	if err := NewPipeline(twoOpts).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("class-count mismatch accepted")
	}

	// Garbage payload.
	if err := NewPipeline(DefaultOptions()).Restore(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatalf("garbage checkpoint accepted")
	}
}

// TestCheckpointCarriesUserState proves the pipeline checkpoint round-
// trips the sharded user-state store: offense histories, session
// verdicts, and escalation state survive a restore, and the restored
// pipeline emits the identical verdict stream over the remaining tweets.
func TestCheckpointCarriesUserState(t *testing.T) {
	data := smallDataset(45, 2500, 1200, 250)
	opts := DefaultOptions()
	opts.Scheme = TwoClass
	p := NewPipeline(opts)
	p.ProcessAll(data[:3000])

	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(opts)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	if got, want := restored.Users().Len(), p.Users().Len(); got != want {
		t.Fatalf("restored %d user records, want %d", got, want)
	}
	if got, want := restored.Users().SessionVerdicts(), p.Users().SessionVerdicts(); got != want {
		t.Fatalf("restored %d session verdicts, want %d", got, want)
	}
	suspended := p.Alerter().SuspendedUsers()
	restoredSuspended := restored.Alerter().SuspendedUsers()
	if len(suspended) != len(restoredSuspended) {
		t.Fatalf("suspension sets diverged: %v vs %v", suspended, restoredSuspended)
	}
	for i := range suspended {
		if suspended[i] != restoredSuspended[i] {
			t.Fatalf("suspension sets diverged (or unsorted): %v vs %v", suspended, restoredSuspended)
		}
	}

	// Continue both pipelines on the remaining stream: verdict streams and
	// per-user state must stay identical.
	rest := data[3000:]
	p.ProcessAll(rest)
	restored.ProcessAll(rest)
	if p.Users().SessionVerdicts() != restored.Users().SessionVerdicts() ||
		p.Users().Escalations() != restored.Users().Escalations() {
		t.Fatalf("verdict streams diverged after restore: (%d,%d) vs (%d,%d)",
			p.Users().SessionVerdicts(), p.Users().Escalations(),
			restored.Users().SessionVerdicts(), restored.Users().Escalations())
	}
	for _, id := range p.Alerter().SuspendedUsers() {
		a, okA := p.Users().Lookup(id)
		b, okB := restored.Users().Lookup(id)
		if !okA || !okB || a.Offenses != b.Offenses || a.Score != b.Score || a.Tweets != b.Tweets {
			t.Fatalf("user %s diverged after restore:\n%+v\n%+v", id, a, b)
		}
	}
}

// TestLegacyCheckpointWithoutUserState: a checkpoint written before the
// user-state layer (no UserStateBlob) restores cleanly with a fresh
// store rather than failing.
func TestLegacyCheckpointWithoutUserState(t *testing.T) {
	p := NewPipeline(DefaultOptions())
	p.ProcessAll(smallDataset(46, 300, 150, 30))
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-encode the gob payload with the user-state blob stripped,
	// simulating the pre-userstate checkpoint format.
	var st checkpointState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	st.UserStateBlob = nil
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(st); err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(DefaultOptions())
	if err := restored.Restore(&legacy); err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if restored.Processed() != p.Processed() {
		t.Fatalf("legacy restore lost model state")
	}
	if restored.Users().Len() != 0 {
		t.Fatalf("legacy restore invented user records")
	}
}

// testdata/parent_ht.ckpt is a Pipeline.Checkpoint written on commit
// 43b51b2 after the first parentCkptHead tweets of parentCkptStream; its
// BoW blob still carries the BoWConfig.Stem field that commit had.
// testdata/parent_ht.golden is goldenFinal of that commit's pipeline after
// it restored the checkpoint and processed the rest of the stream. Do not
// regenerate either from this tree.
const (
	parentCkpt       = "testdata/parent_ht.ckpt"
	parentCkptGolden = "testdata/parent_ht.golden"
	parentCkptHead   = 1500
)

func parentCkptStream() []twitterdata.Tweet { return mixedStream(211, 1800, 900, 180) }

// TestRestoreParentCheckpoint proves a checkpoint written before
// BoWConfig lost its Stem field still restores (gob drops the unknown
// field) and resumes to exactly the state the parent commit reached.
func TestRestoreParentCheckpoint(t *testing.T) {
	f, err := os.Open(parentCkpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := NewPipeline(DefaultOptions())
	if err := p.Restore(f); err != nil {
		t.Fatal(err)
	}
	if p.Processed() != parentCkptHead {
		t.Fatalf("restored at %d tweets, want %d", p.Processed(), parentCkptHead)
	}
	p.ProcessAll(parentCkptStream()[parentCkptHead:])
	requireGolden(t, "restored pipeline", goldenFinal(p), loadGolden(t, parentCkptGolden)[""])
}
