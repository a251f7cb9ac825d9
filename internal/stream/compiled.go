package stream

import (
	"math"

	"redhanded/internal/ml"
)

// Compiled inference snapshots: the live models (HoeffdingTree, SLR,
// AdaptiveRandomForest) are mutable pointer graphs optimized for
// incremental training. The serving hot path wants the opposite — an
// immutable, pointer-free, contiguous representation it can classify
// against without locks or allocations. CompileSnapshot flattens a
// model's prediction function into that form:
//
//   - tree models become one cnode array per tree (split feature,
//     threshold, child indices) plus one frozen float64 block per leaf
//     (class counts, or log priors followed by the precomputed
//     naive-Bayes per-(feature, class) Gaussian records), held in
//     fixed-size chunks so snapshots can share them;
//   - SLR becomes a single flat weight vector with a per-class stride.
//
// The flattening preserves the exact floating-point operation order of
// the live predict paths, so a snapshot's votes are bit-for-bit
// identical to the source model's Predict at the epoch it was compiled
// (compiled_test.go proves this per model and under concurrent
// training, compiled_incremental_test.go after every train step).
//
// Rebuilds are incremental at two levels. Every model carries a
// monotone epoch counter bumped on each mutation, and an ARF snapshot
// reuses the flattened form of any member tree whose (pointer, epoch)
// pair is unchanged since the previous snapshot. Within a changed tree,
// a train step that does not split changes one leaf, a delta merge that
// does not split the leaves it merged: the tree records the leaves
// touched since its latest compile, and compileTree shares that
// compile's node array and every untouched leaf chunk, re-freezing only
// the touched leaves — O(touched leaves), not O(tree). Published
// snapshots are never written, so the sharing needs no coordination
// with readers. Anything that changes the node layout (a split, a
// restore) drops the tree's latest-compile reference,
// and a prev that is not the latest compile (a second consumer holding
// its own prev) is refused: both take one full flatten.

// Compilable is a streaming model whose prediction function can be
// flattened into an immutable Compiled snapshot.
type Compilable interface {
	// Epoch returns a counter bumped on every mutation of
	// prediction-relevant state; callers use it to detect staleness
	// without recompiling.
	Epoch() uint64
	// CompileSnapshot flattens the current prediction state. prev, when
	// non-nil, is an earlier snapshot of the same model: parts whose
	// source did not change since prev was built are reused instead of
	// re-flattened.
	CompileSnapshot(prev *Compiled) *Compiled
}

// cnode is one flattened tree node. Internal nodes have feature >= 0
// and left/right as node-array indices. Leaves have feature == -1 and
// left is the leaf's slot in the tree's leaf table (right is unused).
type cnode struct {
	threshold float64
	feature   int32
	left      int32
	right     int32
}

// Leaf blocks live in fixed-size chunks: an incremental compile copies
// the chunk-pointer table and the one chunk holding each touched leaf,
// and shares every other chunk with the previous snapshot.
const (
	leafChunkShift = 5
	leafChunkLen   = 1 << leafChunkShift
)

// leafChunk holds the frozen blocks of leafChunkLen consecutive leaf
// slots. A block of exactly numClasses values is a majority-class leaf
// (its raw class counts). A longer block is a naive-Bayes leaf: the
// per-class log priors (-Inf for classes the leaf never saw), then the
// observed-feature count, then per observed feature its index and one
// (valid, mean, std, log std) record per class.
type leafChunk [leafChunkLen][]float64

// compiledTree is one flattened Hoeffding tree. src/srcEpoch identify
// the live tree it was flattened from — used only as the incremental-
// rebuild reuse key, never dereferenced at predict time. nodes and the
// chunks behind leaves may be shared with other compiles of the same
// tree; nothing reachable from a compiledTree is written after
// compileTree returns.
type compiledTree struct {
	src      *HoeffdingTree
	srcEpoch uint64
	nodes    []cnode
	leaves   []*leafChunk
}

// Compiled is an immutable, pointer-free snapshot of a model's
// prediction function. It is safe for unsynchronized concurrent use by
// any number of readers; publication is the caller's concern (the core
// pipeline uses an atomic.Pointer per the RCU rule in DESIGN.md).
type Compiled struct {
	src        any // source model identity, for prev-reuse checks only
	epoch      uint64
	numClasses int
	rebuilt    int // trees recompiled while building this snapshot

	// Tree models. A single HT compiles to one tree with no ensemble
	// vote; ARF compiles to one tree per member plus accuracy weights.
	trees    []*compiledTree
	weights  []float64
	ensemble bool

	// SLR: flat [class*stride + feature] weights, bias at stride-1.
	slrW      []float64
	slrStride int
}

// Epoch returns the source-model epoch this snapshot was compiled at.
func (c *Compiled) Epoch() uint64 { return c.epoch }

// Rebuilt returns how many trees were recompiled (rather than reused
// whole from the previous snapshot) when this snapshot was built.
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
		blk := ct.leaves[nd.left>>leafChunkShift][nd.left&(leafChunkLen-1)]
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

// compileTree returns the compiled form of t's current state. When prev
// is the tree's latest compile, the node layout is unchanged since (every
// layout change drops t.compiled) and t.touched lists exactly the leaves
// whose statistics moved: the result shares prev's node array and leaf
// chunks and re-freezes only those leaves. Any other prev is refused and
// the tree is flattened in full.
func compileTree(t *HoeffdingTree, prev *compiledTree) *compiledTree {
	ct := &compiledTree{src: t, srcEpoch: t.epoch}
	if prev == nil || prev != t.compiled {
		// Full flatten: every leaf gets its slot in depth-first order.
		ct.nodes = make([]cnode, 0, t.NumNodes())
		ct.leaves = make([]*leafChunk, 0, (t.NumLeaves()+leafChunkLen-1)>>leafChunkShift)
		slots := int32(0)
		ct.addNode(t, t.root, &slots)
	} else {
		ct.nodes = prev.nodes
		ct.leaves = append([]*leafChunk(nil), prev.leaves...)
		for _, leaf := range t.touched {
			ci := leaf.slot >> leafChunkShift
			if ct.leaves[ci] == prev.leaves[ci] {
				chunk := *prev.leaves[ci]
				ct.leaves[ci] = &chunk
			}
			ct.leaves[ci][leaf.slot&(leafChunkLen-1)] = freezeLeaf(t, leaf.stats)
			leaf.dirty = false
		}
	}
	t.touched = t.touched[:0]
	t.compiled = ct
	return ct
}

// addNode appends n (and, for internal nodes, its subtree) to the node
// array and returns its index. *slots is the next free leaf slot; a leaf
// takes it, and with it a clean touched mark.
func (ct *compiledTree) addNode(t *HoeffdingTree, n *htNode, slots *int32) int32 {
	idx := int32(len(ct.nodes))
	ct.nodes = append(ct.nodes, cnode{})
	if n.isLeaf() {
		n.slot, n.dirty = *slots, false
		*slots++
		if n.slot&(leafChunkLen-1) == 0 {
			ct.leaves = append(ct.leaves, new(leafChunk))
		}
		ct.leaves[n.slot>>leafChunkShift][n.slot&(leafChunkLen-1)] = freezeLeaf(t, n.stats)
		ct.nodes[idx] = cnode{feature: -1, left: n.slot, right: -1}
		return idx
	}
	ct.nodes[idx].feature = int32(n.feature)
	ct.nodes[idx].threshold = n.threshold
	l := ct.addNode(t, n.left, slots)
	r := ct.addNode(t, n.right, slots)
	ct.nodes[idx].left = l
	ct.nodes[idx].right = r
	return idx
}

// freezeLeaf freezes one leaf's prediction into a fresh, exactly sized
// block (see leafChunk for the layout). The NaiveBayesAdaptive choice
// (nbCorrect > mcCorrect) is resolved here: it only changes under
// training, which marks the leaf touched so it is frozen again. A
// naive-Bayes leaf that has seen no weight votes all-zero, exactly what
// copying its zero class counts yields, so it freezes as majority-class.
func freezeLeaf(t *HoeffdingTree, s *leafStats) []float64 {
	nb := t.cfg.LeafPrediction == NaiveBayes ||
		(t.cfg.LeafPrediction == NaiveBayesAdaptive && s.nbCorrect > s.mcCorrect)
	total := sum(s.classCounts)
	if !nb || total == 0 {
		return append([]float64(nil), s.classCounts...)
	}
	k := len(s.classCounts)
	nFeat := 0
	for _, obs := range s.observers {
		if obs != nil {
			nFeat++
		}
	}
	blk := make([]float64, 0, k+1+nFeat*(1+4*k))
	for _, cnt := range s.classCounts {
		if cnt == 0 {
			blk = append(blk, math.Inf(-1))
		} else {
			blk = append(blk, math.Log(cnt/total))
		}
	}
	blk = append(blk, float64(nFeat))
	for f, obs := range s.observers {
		if obs == nil {
			continue
		}
		blk = append(blk, float64(f))
		for c := 0; c < k; c++ {
			w := obs.PerClass[c]
			if w.N < 2 {
				blk = append(blk, 0, 0, 0, 0)
				continue
			}
			std := w.Std()
			if std < 1e-9 {
				std = 1e-9
			}
			blk = append(blk, 1, w.Mean, std, math.Log(std))
		}
	}
	return blk
}

// Epoch implements Compilable.
func (t *HoeffdingTree) Epoch() uint64 { return t.epoch }

// CompileSnapshot implements Compilable.
func (t *HoeffdingTree) CompileSnapshot(prev *Compiled) *Compiled {
	var prevTree *compiledTree
	if prev != nil && prev.src == any(t) {
		if prev.epoch == t.epoch {
			return prev
		}
		prevTree = prev.trees[0]
	}
	return &Compiled{
		src:        t,
		epoch:      t.epoch,
		numClasses: t.cfg.NumClasses,
		rebuilt:    1,
		trees:      []*compiledTree{compileTree(t, prevTree)},
	}
}

// Epoch implements Compilable.
func (s *SLR) Epoch() uint64 { return s.epoch }

// CompileSnapshot implements Compilable. SLR has no incremental
// structure — the flat copy is O(weights) and always rebuilt.
func (s *SLR) CompileSnapshot(prev *Compiled) *Compiled {
	if prev != nil && prev.src == any(s) && prev.epoch == s.epoch {
		return prev
	}
	stride := 0
	if len(s.w) > 0 {
		stride = len(s.w[0])
	}
	flat := make([]float64, 0, len(s.w)*stride)
	for _, row := range s.w {
		flat = append(flat, row...)
	}
	return &Compiled{
		src:        s,
		epoch:      s.epoch,
		numClasses: s.cfg.NumClasses,
		rebuilt:    1,
		slrW:       flat,
		slrStride:  stride,
	}
}

// Epoch implements Compilable.
func (f *AdaptiveRandomForest) Epoch() uint64 { return f.epoch }

// CompileSnapshot implements Compilable. Member vote weights are
// recomputed every rebuild (O(members)); a member tree is recompiled
// only when its (pointer, epoch) reuse key changed since prev — members
// whose bagging weight drew zero, and the unchanged majority after a
// drift replacement, are reused as-is — and a recompiled member goes
// through compileTree with its previous form, so a trained member costs
// its touched leaves and only a replaced or split one a full flatten.
func (f *AdaptiveRandomForest) CompileSnapshot(prev *Compiled) *Compiled {
	if prev != nil && prev.src == any(f) && prev.epoch == f.epoch {
		return prev
	}
	c := &Compiled{
		src:        f,
		epoch:      f.epoch,
		numClasses: f.cfg.NumClasses,
		ensemble:   true,
		trees:      make([]*compiledTree, len(f.members)),
		weights:    make([]float64, len(f.members)),
	}
	for i, m := range f.members {
		c.weights[i] = m.weight()
		var prevTree *compiledTree
		if prev != nil && i < len(prev.trees) {
			prevTree = prev.trees[i]
		}
		if prevTree != nil && prevTree.src == m.tree && prevTree.srcEpoch == m.tree.epoch {
			c.trees[i] = prevTree
			continue
		}
		c.trees[i] = compileTree(m.tree, prevTree)
		c.rebuilt++
	}
	return c
}

// Interface conformance checks.
var (
	_ Compilable = (*HoeffdingTree)(nil)
	_ Compilable = (*SLR)(nil)
	_ Compilable = (*AdaptiveRandomForest)(nil)
)
