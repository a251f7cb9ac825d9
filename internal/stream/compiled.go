package stream

import (
	"math"
	"slices"

	"redhanded/internal/ml"
)

// Compiled inference snapshots: the live models (HoeffdingTree, SLR,
// AdaptiveRandomForest) are mutable pointer graphs optimized for
// incremental training. The classify step wants the opposite — a
// pointer-free, contiguous representation it can classify against
// without allocations. CompileSnapshot brings a model's one compiled
// form of that shape up to date and returns it:
//
//   - a Hoeffding tree is one cnode array (split feature, threshold,
//     child indices) plus one arena of frozen leaf blocks (class counts,
//     or log priors followed by the precomputed naive-Bayes
//     per-(feature, class) Gaussian records). Every leaf owns a block of
//     the same reserved length, so a re-frozen leaf is written where it
//     is stored;
//   - an ensemble points at its members' trees and holds their vote
//     weights;
//   - SLR becomes a single flat weight vector with a per-class stride.
//
// The flattening preserves the exact floating-point operation order of
// the live predict paths, so the compiled votes are bit-for-bit
// identical to the source model's Predict at the epoch it was compiled
// (compiled_test.go proves this per model, compiled_incremental_test.go
// after every train step, merge and restore).
//
// Each model owns its compiled form and compiles it in place. A tree
// lists the leaves its training and delta merges touched and the leaves
// they split since its last compile; the compile rewrites each split
// leaf's node as an internal node over two appended leaves (the left
// keeps the split leaf's block, the right gets a new one) and re-freezes
// each touched leaf into its block. Nothing else is written, and after a
// non-splitting step nothing is allocated. A tree never compiled, or
// restored since, is flattened afresh. The forest re-compiles only the
// member trees that changed and refreshes its weights; SLR copies its
// weights. The compiled form is therefore valid only until its model's
// next compile: the code that mutates a model is the code that compiles
// it, and readers share it only while nothing compiles (DESIGN.md).

// Compilable is a streaming model whose prediction function can be
// flattened into its Compiled form.
type Compilable interface {
	// Epoch returns a counter bumped on every mutation of
	// prediction-relevant state; callers use it to detect staleness
	// without recompiling.
	Epoch() uint64
	// CompileSnapshot brings the model's one compiled form up to date in
	// place and returns it: every call returns the same *Compiled. prev
	// is unused.
	CompileSnapshot(prev *Compiled) *Compiled
}

// cnode is one flattened tree node. Internal nodes have feature >= 0
// and left/right as node-array indices. Leaves have feature == -1, and
// their block is arena[left : left+right].
type cnode struct {
	threshold float64
	feature   int32
	left      int32
	right     int32
}

// compiledTree is one flattened Hoeffding tree, owned by the tree it was
// flattened from. The walk starts at nodes[0]. Every leaf has block arena
// values reserved, as many as the longest block its tree's
// leaf-prediction mode can freeze. A block of exactly numClasses values
// is a majority-class leaf (its raw class counts); a longer block is a
// naive-Bayes leaf: the per-class log priors (-Inf for classes the leaf
// never saw), then the observed-feature count, then per observed feature
// its index and one (valid, mean, std, log std) record per class. The
// arrays hold exactly the tree's nodes and its leaves' reservations.
type compiledTree struct {
	nodes []cnode
	arena []float64
	block int
}

// Compiled is the flat form of a model's prediction function, owned by
// the model and brought up to date in place by its CompileSnapshot. Any number of readers may classify with it
// concurrently while nothing compiles the model.
type Compiled struct {
	epoch      uint64
	numClasses int
	rebuilt    int // trees re-compiled by the latest compile

	// Tree models. A single HT compiles to one tree with no ensemble
	// vote; ARF compiles to one tree per member plus accuracy weights.
	trees    []*compiledTree
	weights  []float64
	ensemble bool

	// SLR: flat [class*stride + feature] weights, bias at stride-1.
	slrW      []float64
	slrStride int
}

// Epoch returns the model epoch this form was last compiled at.
func (c *Compiled) Epoch() uint64 { return c.epoch }

// Rebuilt returns how many trees the latest compile changed (1 for
// SLR).
func (c *Compiled) Rebuilt() int { return c.rebuilt }

// NumClasses returns the class-domain size of the compiled model.
func (c *Compiled) NumClasses() int { return c.numClasses }

// NumTrees returns the number of flattened trees (0 for linear models).
func (c *Compiled) NumTrees() int { return len(c.trees) }

// NumNodes returns the total flattened node count across all trees.
func (c *Compiled) NumNodes() int {
	n := 0
	for _, t := range c.trees {
		n += len(t.nodes)
	}
	return n
}

// ScratchLen returns the scratch length PredictInto requires.
func (c *Compiled) ScratchLen() int { return 2 * c.numClasses }

// Predict is the allocating convenience form of PredictInto, used by
// tests and cold paths.
func (c *Compiled) Predict(x []float64) ml.Prediction {
	dst := make(ml.Prediction, c.numClasses)
	scratch := make([]float64, c.ScratchLen())
	c.PredictInto(dst, scratch, x)
	return dst
}

// PredictInto evaluates the compiled model on x, writing the per-class
// votes into dst (length NumClasses). scratch is caller-owned working
// space of at least ScratchLen() — both buffers are reused across
// calls, which is what keeps the serving classify path at 0 allocs/op.
// The votes are bit-for-bit identical to the source model's Predict at
// the epoch the snapshot was compiled.
//
//redvet:noalloc gate=CompiledClassify
func (c *Compiled) PredictInto(dst, scratch, x []float64) {
	if c.slrStride > 0 {
		c.predictSLR(dst, x)
		return
	}
	if !c.ensemble {
		// Single tree: the leaf votes are the prediction, verbatim.
		c.trees[0].predictInto(dst, scratch, x)
		return
	}
	votes := scratch[:c.numClasses]
	logv := scratch[c.numClasses : 2*c.numClasses]
	for cl := range dst {
		dst[cl] = 0
	}
	for t := range c.trees {
		c.trees[t].predictInto(votes, logv, x)
		// Mirror ml.Prediction.Normalize: zero-sum votes stay raw.
		sum := 0.0
		for cl := range votes {
			sum += votes[cl]
		}
		if sum > 0 {
			for cl := range votes {
				votes[cl] /= sum
			}
		}
		w := c.weights[t]
		for cl := range dst {
			dst[cl] += w * votes[cl]
		}
	}
}

// predictInto routes x to its leaf and writes the leaf votes into
// votes; logv is scratch for the naive-Bayes log-space accumulation.
//
//redvet:noalloc gate=CompiledClassify
func (ct *compiledTree) predictInto(votes, logv, x []float64) {
	i := int32(0)
	for {
		nd := ct.nodes[i]
		if nd.feature >= 0 {
			if int(nd.feature) < len(x) && x[nd.feature] <= nd.threshold {
				i = nd.left
			} else {
				i = nd.right
			}
			continue
		}
		blk := ct.arena[nd.left : nd.left+nd.right]
		if len(blk) == len(votes) {
			// Majority-class leaf: raw class-count copy.
			copy(votes, blk)
			return
		}
		naiveBayesInto(votes, logv, x, blk)
		return
	}
}

// naiveBayesInto replays HoeffdingTree.naiveBayesVotes against one
// frozen naive-Bayes leaf block: per class, the log prior plus each
// valid (feature, class) Gaussian log-likelihood in ascending feature
// order, then a max-shifted exp — the identical operation sequence, so
// the result is bit-for-bit the live path's.
//
//redvet:noalloc gate=CompiledClassify
func naiveBayesInto(votes, logv, x, blk []float64) {
	nb := blk[len(votes):]
	nFeat := int(nb[0])
	stride := 1 + 4*len(votes)
	maxLog := math.Inf(-1)
	for c := range votes {
		lp := blk[c]
		if math.IsInf(lp, -1) {
			logv[c] = lp
			continue
		}
		lv := lp
		off := 1
		for f := 0; f < nFeat; f++ {
			feat := int(nb[off])
			rec := off + 1 + 4*c
			off += stride
			if feat >= len(x) || nb[rec] == 0 {
				continue
			}
			std := nb[rec+2]
			z := (x[feat] - nb[rec+1]) / std
			lv += -0.5*z*z - nb[rec+3]
		}
		logv[c] = lv
		if lv > maxLog {
			maxLog = lv
		}
	}
	for c := range votes {
		lv := logv[c]
		if math.IsInf(lv, -1) {
			votes[c] = 0
			continue
		}
		votes[c] = math.Exp(lv - maxLog)
	}
}

// predictSLR replays softmaxMargins over the flat weight vector.
//
//redvet:noalloc gate=CompiledClassify
func (c *Compiled) predictSLR(dst, x []float64) {
	stride := c.slrStride
	maxM := math.Inf(-1)
	for cl := range dst {
		row := cl * stride
		m := c.slrW[row+stride-1]
		n := stride - 1
		if len(x) < n {
			n = len(x)
		}
		for i := 0; i < n; i++ {
			m += c.slrW[row+i] * x[i]
		}
		dst[cl] = m
		if m > maxM {
			maxM = m
		}
	}
	sum := 0.0
	for cl := range dst {
		dst[cl] = math.Exp(dst[cl] - maxM)
		sum += dst[cl]
	}
	for cl := range dst {
		dst[cl] /= sum
	}
}

// --- compilation ---

// compile brings t.flat up to date in place and reports whether it
// changed anything. A tree never compiled, or restored since, is
// flattened afresh; otherwise the splits since the last compile are laid
// into the node array and the touched leaves re-frozen.
//
//redvet:noalloc gate=CompileInPlace
func (t *HoeffdingTree) compile() bool {
	switch {
	case len(t.flat.nodes) == 0:
		t.flatten()
		return true
	case len(t.touched) == 0: // a split touches both its new leaves
		return false
	}
	t.applySplits()
	for _, n := range t.touched {
		if n.isLeaf() { // not split since it was touched
			t.freeze(n)
		}
		n.dirty = false
	}
	t.touched = t.touched[:0]
	return true
}

// flatten lays the whole tree out in depth-first order, reusing t.flat's
// arrays, and freezes every leaf.
func (t *HoeffdingTree) flatten() {
	k := t.cfg.NumClasses
	t.flat.block = k
	if t.cfg.LeafPrediction != MajorityClass {
		t.flat.block = k + 1 + t.cfg.NumFeatures*(1+4*k)
	}
	t.flat.nodes, t.flat.arena = t.flat.nodes[:0], t.flat.arena[:0]
	t.addNode(t.root)
}

// addNode appends n (and, for internal nodes, its subtree) to the node
// array in depth-first order and returns its index. A leaf gets a
// reserved block and is frozen into it.
func (t *HoeffdingTree) addNode(n *htNode) int32 {
	idx := int32(len(t.flat.nodes))
	n.cidx = idx
	t.flat.nodes = append(t.flat.nodes, cnode{})
	if n.isLeaf() {
		t.flat.nodes[idx] = cnode{feature: -1, left: t.reserveBlock()}
		t.freeze(n)
		return idx
	}
	l := t.addNode(n.left)
	r := t.addNode(n.right)
	t.flat.nodes[idx] = cnode{threshold: n.threshold, feature: int32(n.feature), left: l, right: r}
	return idx
}

// applySplits rewrites the node of each leaf split since the last
// compile, in the order they split, as an internal node over two
// appended leaves: the left takes the split leaf's block, the right a
// newly reserved one. Both new leaves are on the touched list, so the
// caller freezes them.
func (t *HoeffdingTree) applySplits() {
	for _, n := range t.splits {
		off := t.flat.nodes[n.cidx].left
		l := int32(len(t.flat.nodes))
		n.left.cidx, n.right.cidx = l, l+1
		t.flat.nodes[n.cidx] = cnode{threshold: n.threshold, feature: int32(n.feature), left: l, right: l + 1}
		t.flat.nodes = append(t.flat.nodes, cnode{feature: -1, left: off}, cnode{feature: -1, left: t.reserveBlock()})
	}
	t.splits = t.splits[:0]
}

// reserveBlock appends one leaf's block reservation to the arena and
// returns its offset.
func (t *HoeffdingTree) reserveBlock() int32 {
	off := len(t.flat.arena)
	t.flat.arena = slices.Grow(t.flat.arena, t.flat.block)[:off+t.flat.block]
	return int32(off)
}

// freeze writes leaf n's block into its reservation and the block's
// length into n's node.
//
//redvet:noalloc gate=CompileInPlace
func (t *HoeffdingTree) freeze(n *htNode) {
	nd := &t.flat.nodes[n.cidx]
	blk := t.freezeLeaf(t.flat.arena[nd.left:nd.left:int(nd.left)+t.flat.block], n.stats)
	nd.right = int32(len(blk))
}

// freezeLeaf appends one leaf's prediction to dst as a block (see
// compiledTree for the layout). The NaiveBayesAdaptive choice
// (nbCorrect > mcCorrect) is resolved here: it only changes under
// training, which marks the leaf touched so it is frozen again. A
// naive-Bayes leaf that has seen no weight votes all-zero, exactly what
// copying its zero class counts yields, so it freezes as majority-class.
//
//redvet:noalloc gate=CompileInPlace
func (t *HoeffdingTree) freezeLeaf(dst []float64, s *leafStats) []float64 {
	nb := t.cfg.LeafPrediction == NaiveBayes ||
		(t.cfg.LeafPrediction == NaiveBayesAdaptive && s.nbCorrect > s.mcCorrect)
	if total := sum(s.classCounts); nb && total > 0 {
		return appendNaiveBayes(dst, s, total)
	}
	dst = append(dst, s.classCounts...)
	return dst
}

// appendNaiveBayes appends the naive-Bayes block of a leaf that has seen
// total weight to dst.
//
//redvet:noalloc gate=CompileInPlace
func appendNaiveBayes(dst []float64, s *leafStats, total float64) []float64 {
	nFeat := 0
	for _, obs := range s.observers {
		if obs != nil {
			nFeat++
		}
	}
	for _, cnt := range s.classCounts {
		if cnt == 0 {
			dst = append(dst, math.Inf(-1))
		} else {
			dst = append(dst, math.Log(cnt/total))
		}
	}
	dst = append(dst, float64(nFeat))
	for f, obs := range s.observers {
		if obs == nil {
			continue
		}
		dst = append(dst, float64(f))
		for c := range s.classCounts {
			w := obs.PerClass[c]
			if w.N < 2 {
				dst = append(dst, 0, 0, 0, 0)
				continue
			}
			std := w.Std()
			if std < 1e-9 {
				std = 1e-9
			}
			dst = append(dst, 1, w.Mean, std, math.Log(std))
		}
	}
	return dst
}

// Epoch implements Compilable.
func (t *HoeffdingTree) Epoch() uint64 { return t.epoch }

// CompileSnapshot implements Compilable: the tree's compiled form,
// brought up to date by compile.
//
//redvet:noalloc gate=CompileInPlace
func (t *HoeffdingTree) CompileSnapshot(*Compiled) *Compiled {
	c := &t.compiled
	if c.trees == nil {
		c.trees = []*compiledTree{&t.flat} //redvet:ignore noalloc the tree's first compile; TestCompileInPlaceZeroAlloc pins the ones after it at 0
	}
	c.epoch, c.numClasses, c.rebuilt = t.epoch, t.cfg.NumClasses, 0
	if t.compile() {
		c.rebuilt = 1
	}
	return c
}

// Epoch implements Compilable.
func (s *SLR) Epoch() uint64 { return s.epoch }

// CompileSnapshot implements Compilable: the weights are copied into the
// flat vector, O(weights).
//
//redvet:noalloc gate=CompileInPlace
func (s *SLR) CompileSnapshot(*Compiled) *Compiled {
	c := &s.compiled
	stride := 0
	if len(s.w) > 0 {
		stride = len(s.w[0])
	}
	if len(c.slrW) != len(s.w)*stride {
		c.slrW = make([]float64, len(s.w)*stride) //redvet:ignore noalloc the first compile, or one after a restore changed the dimensions
	}
	for cl, row := range s.w {
		copy(c.slrW[cl*stride:], row)
	}
	c.epoch, c.numClasses, c.rebuilt, c.slrStride = s.epoch, s.cfg.NumClasses, 1, stride
	return c
}

// Epoch implements Compilable.
func (f *AdaptiveRandomForest) Epoch() uint64 { return f.epoch }

// CompileSnapshot implements Compilable. Member vote weights are
// recomputed every compile (O(members)); a member tree is compiled in
// place, which costs nothing for members that did not change (bagging
// weight zero), its touched leaves for a trained one, and a full
// flatten only for a member just replaced by a fresh or background tree.
//
//redvet:noalloc gate=CompileInPlace
func (f *AdaptiveRandomForest) CompileSnapshot(*Compiled) *Compiled {
	c := &f.compiled
	if n := len(f.members); len(c.trees) != n {
		c.trees, c.weights = make([]*compiledTree, n), make([]float64, n) //redvet:ignore noalloc the first compile, or one after a restore changed the ensemble size
	}
	c.epoch, c.numClasses, c.ensemble, c.rebuilt = f.epoch, f.cfg.NumClasses, true, 0
	for i, m := range f.members {
		c.weights[i] = m.weight()
		if m.tree.compile() {
			c.rebuilt++
		}
		c.trees[i] = &m.tree.flat
	}
	return c
}

// Interface conformance checks.
var (
	_ Compilable = (*HoeffdingTree)(nil)
	_ Compilable = (*SLR)(nil)
	_ Compilable = (*AdaptiveRandomForest)(nil)
)
