package feature

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// bowState is the gob DTO capturing the complete adaptive-BoW state: the
// vocabulary plus the rolling word-frequency tables that drive future
// enhancement rounds. (The cluster engine's per-batch broadcast ships only
// the vocabulary — remote BoWs never adapt — but checkpoints must capture
// everything.)
type bowState struct {
	// Cfg carries Frozen. Blobs written while BoWConfig held the tuning
	// values still decode: gob skips the fields it no longer has.
	Cfg         BoWConfig
	Words       []string
	AggrCounts  map[string]float64
	AggrTweets  float64
	NormCounts  map[string]float64
	NormTweets  float64
	SinceUpdate int
	Additions   int
	Removals    int
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *AdaptiveBoW) MarshalBinary() ([]byte, error) {
	st := bowState{
		Cfg:         b.cfg,
		AggrCounts:  b.aggressive.flat(),
		AggrTweets:  b.aggressive.tweets,
		NormCounts:  b.normal.flat(),
		NormTweets:  b.normal.tweets,
		SinceUpdate: b.sinceUpdate,
		Additions:   b.additions,
		Removals:    b.removals,
	}
	for w := range b.words {
		st.Words = append(st.Words, w)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("feature: encode BoW: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores the full BoW state in place. The seed-word set
// is rebuilt from the lexicon (seeds are permanent by construction).
func (b *AdaptiveBoW) UnmarshalBinary(data []byte) error {
	var st bowState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("feature: decode BoW: %w", err)
	}
	b.cfg.Frozen = st.Cfg.Frozen
	b.words = make(map[string]bool, len(st.Words))
	for _, w := range st.Words {
		b.words[w] = true
	}
	b.aggressive = newWordTable()
	b.aggressive.setFlat(st.AggrCounts)
	b.aggressive.tweets = st.AggrTweets
	b.normal = newWordTable()
	b.normal.setFlat(st.NormCounts)
	b.normal.tweets = st.NormTweets
	b.sinceUpdate = st.SinceUpdate
	b.additions = st.Additions
	b.removals = st.Removals
	b.rebuildSnapshot()
	return nil
}
