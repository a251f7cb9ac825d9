package norm

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// MarshalBinary encodes the statistics for broadcast to remote tasks.
func (fs *FeatureStats) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	type dto FeatureStats // avoid MarshalBinary recursion inside gob
	if err := gob.NewEncoder(&buf).Encode((*dto)(fs)); err != nil {
		return nil, fmt.Errorf("norm: encode feature stats: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores statistics encoded by MarshalBinary. The
// bytes may come from another process, so nothing is applied until their
// shape checks out: four slices of one length, which is the receiver's
// dimension unless the receiver tracks no feature yet, counts in
// [0, maxCount], and quantile estimators that Add and Value can use.
func (fs *FeatureStats) UnmarshalBinary(data []byte) error {
	type dto FeatureStats
	var got FeatureStats
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode((*dto)(&got)); err != nil {
		return fmt.Errorf("norm: decode feature stats: %w", err)
	}
	if err := got.check(fs.Dim()); err != nil {
		return fmt.Errorf("norm: decode feature stats: %w", err)
	}
	*fs = got
	return nil
}

// maxCount bounds a decoded count. P² keeps marker positions in float64s,
// exact up to 2^53, and merging counts this size stays far from int64
// overflow.
const maxCount = 1 << 53

func (fs *FeatureStats) check(dim int) error {
	d := len(fs.Welford)
	if dim > 0 && d != dim {
		return fmt.Errorf("%d features, want %d", d, dim)
	}
	if len(fs.Range) != d || len(fs.Q1) != d || len(fs.Q3) != d {
		return fmt.Errorf("%d features with %d ranges, %d Q1 and %d Q3 estimators", d, len(fs.Range), len(fs.Q1), len(fs.Q3))
	}
	for i := 0; i < d; i++ {
		if !validCount(fs.Welford[i].N) || !validCount(fs.Range[i].N) || !fs.Q1[i].usable() || !fs.Q3[i].usable() {
			return fmt.Errorf("feature %d has a count out of range or an unusable quantile estimator", i)
		}
	}
	return nil
}

func validCount(n int64) bool { return n >= 0 && n <= maxCount }

// usable reports whether Add and Value can use q: a target inside (0,1),
// a valid count, and a buffer of the first observations, which Add fills
// up to the fourth and empties at the fifth.
func (q *P2Quantile) usable() bool {
	buffered := q.Count
	if buffered >= 5 {
		buffered = 0
	}
	return q.P > 0 && q.P < 1 && validCount(q.Count) && int64(len(q.Initial)) == buffered
}
