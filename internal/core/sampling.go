package core

import (
	"math"

	"redhanded/internal/ml"
	"redhanded/internal/twitterdata"
)

// SamplerConfig tunes the boosted random sampling step.
type SamplerConfig struct {
	// Capacity is the reservoir size (tweets kept for labeling).
	Capacity int
	// Boost multiplies the sampling weight of tweets predicted
	// aggressive, so the labeling sample is not dominated by the normal
	// majority (the minority-class problem of §I).
	Boost float64
	// Seed drives the sampling randomness.
	Seed uint64
}

// DefaultSamplerConfig returns a 1000-tweet reservoir with 8x boost.
func DefaultSamplerConfig(seed uint64) SamplerConfig {
	return SamplerConfig{Capacity: 1000, Boost: 8, Seed: seed}
}

// sampledTweet pairs a reservoir entry with its priority key.
type sampledTweet struct {
	tweet twitterdata.Tweet
	key   float64
}

// BoostedSampler implements boosted weighted reservoir sampling
// (Efraimidis-Spirakis A-Res): each tweet receives priority u^(1/w) where
// w is its weight — 1 for predicted-normal, Boost for predicted-aggressive
// — and the reservoir keeps the Capacity highest priorities. The result is
// a random sample whose aggressive share is boosted without biasing the
// within-class selection.
//
// A BoostedSampler keeps no lock: a pipeline's sampler is offered tweets
// under the pipeline's lock, and Sample, Offered and Drain are for the
// goroutine that drives the pipeline.
type BoostedSampler struct {
	cfg     SamplerConfig
	rng     *ml.RNG
	entries []sampledTweet // min-heap on key
	offered int64
}

// NewBoostedSampler creates the sampler.
func NewBoostedSampler(cfg SamplerConfig) *BoostedSampler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1000
	}
	if cfg.Boost <= 0 {
		cfg.Boost = 1
	}
	return &BoostedSampler{cfg: cfg, rng: ml.NewRNG(cfg.Seed)}
}

// Offer presents an unlabeled tweet with its prediction to the sampler.
func (s *BoostedSampler) Offer(tw *twitterdata.Tweet, votes ml.Prediction) {
	w := 1.0
	if votes.ArgMax() > 0 { // predicted aggressive (any non-normal class)
		w = s.cfg.Boost
	}
	s.offered++
	u := s.rng.Float64()
	if u == 0 {
		u = 1e-18
	}
	key := math.Pow(u, 1/w)
	// Clone on acceptance: reservoir tweets outlive the processing call,
	// and fast-decoded tweets carry arena-backed strings that a long-lived
	// sample must not pin. Rejected offers (the steady state once the
	// reservoir is warm) copy nothing.
	if len(s.entries) < s.cfg.Capacity {
		s.entries = append(s.entries, sampledTweet{tweet: tw.Clone(), key: key})
		s.up(len(s.entries) - 1)
		return
	}
	if key > s.entries[0].key {
		s.entries[0] = sampledTweet{tweet: tw.Clone(), key: key}
		s.down(0)
	}
}

// Sample returns the current reservoir contents (the tweets to send for
// manual labeling).
func (s *BoostedSampler) Sample() []twitterdata.Tweet {
	out := make([]twitterdata.Tweet, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.tweet
	}
	return out
}

// Offered returns how many tweets have been considered.
func (s *BoostedSampler) Offered() int64 { return s.offered }

// Drain empties the reservoir, returning its contents (a labeling round).
func (s *BoostedSampler) Drain() []twitterdata.Tweet {
	out := make([]twitterdata.Tweet, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.tweet
	}
	s.entries = s.entries[:0]
	return out
}

// min-heap maintenance on entries[.].key.
func (s *BoostedSampler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.entries[parent].key <= s.entries[i].key {
			return
		}
		s.entries[parent], s.entries[i] = s.entries[i], s.entries[parent]
		i = parent
	}
}

func (s *BoostedSampler) down(i int) {
	n := len(s.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.entries[l].key < s.entries[smallest].key {
			smallest = l
		}
		if r < n && s.entries[r].key < s.entries[smallest].key {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.entries[i], s.entries[smallest] = s.entries[smallest], s.entries[i]
		i = smallest
	}
}
