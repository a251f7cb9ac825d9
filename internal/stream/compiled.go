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
//     naive-Bayes per-(feature, class) Gaussian records). Both live in
//     append-only arrays the tree owns; a leaf table of {off, n} pairs
//     in fixed-size chunks locates the blocks, so snapshots can share
//     chunks;
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
// the tree records the leaves touched and the leaves split since its
// latest compile, and compileTree builds on that compile: it shares the
// node array and every untouched leaf chunk, and re-freezes only the
// touched leaves. A split appends its two new leaves (one in the split
// leaf's slot, one in a fresh slot) and a copy of the path above them to
// the node array, so it writes no node a snapshot already reads. A
// touched leaf's chunk is copied to the end of the tree's chunk array
// and its block appended to the tree's arena, so a one-tree compile
// allocates its header (one object) and its table of chunk indices.
// Published snapshots are never written: a compile keeps the prefixes of
// the tree's arrays it was built with, later compiles append past them,
// and the sharing needs no coordination with readers. When the arena
// outgrows twice its live size plus arenaSlack, the compile moves the
// live blocks into a fresh arena and the live chunks into a fresh chunk
// array (compaction), and keeps the node array; chunk copies that
// outgrow the chunk array move the live chunks alone. A full flatten
// remains for a restore (which drops the tree's latest-compile
// reference), a prev that is not the latest compile (a second consumer
// holding its own prev), and splits whose path copies outgrow the node
// array (its compaction).

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

// The leaf table lives in fixed-size chunks: an incremental compile
// copies the table of chunk indices and the one chunk holding each
// touched leaf, and shares every other chunk with the previous snapshot.
const (
	leafChunkShift = 5
	leafChunkLen   = 1 << leafChunkShift
)

// arenaSlack is the arena growth, in values, allowed on top of twice its
// live size before a compile compacts it, and the headroom a fresh arena
// gets beyond that bound, so the blocks of the next compiles land
// without growing it. nodeSlack is the room, in nodes, a fresh node
// array gets for path copies on top of an eighth of the tree's size:
// path copies scatter a walk over the array, so the tree is laid out
// afresh in depth-first order once they fill that room. chunkSlack is the
// room, in chunks, a fresh chunk array gets for chunk copies on top of
// the leaf table (after a flatten) or of seven times it (after a move).
// All stay small so that a small tree's arrays do too: page-sized arrays
// for every member of a forest put all their roots in the same cache
// sets.
const (
	arenaSlack = 64
	nodeSlack  = 16
	chunkSlack = 16
)

// leafRef locates one leaf's frozen block in its tree's arena:
// arena[off : off+n]. A block of exactly numClasses values is a
// majority-class leaf (its raw class counts). A longer block is a
// naive-Bayes leaf: the per-class log priors (-Inf for classes the leaf
// never saw), then the observed-feature count, then per observed feature
// its index and one (valid, mean, std, log std) record per class.
type leafRef struct{ off, n uint32 }

// leafChunk locates the blocks of leafChunkLen consecutive leaf slots.
type leafChunk [leafChunkLen]leafRef

// compiledTree is one flattened Hoeffding tree: the walk starts at
// nodes[root], and leaf slot s's block is located by
// chunks[table[s/leafChunkLen]][s%leafChunkLen]. src/srcEpoch identify
// the live tree it was flattened from — used only as the incremental-
// rebuild reuse key, never dereferenced at predict time. The node, chunk
// and arena backings are shared with other compiles of the same tree;
// nothing a compiledTree can read is written after compileTree returns
// (later compiles append past len(nodes), len(chunks) and len(arena)
// only). Those arrays also hold the dead copies later compiles left
// behind, so size is the tree's node count.
type compiledTree struct {
	src      *HoeffdingTree
	srcEpoch uint64
	nodes    []cnode
	chunks   []leafChunk
	table    []uint32
	arena    []float64
	root     int32
	size     int32
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
		n += int(t.size)
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
	i := ct.root
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
		ref := ct.chunks[ct.table[nd.left>>leafChunkShift]][nd.left&(leafChunkLen-1)]
		blk := ct.arena[ref.off : ref.off+ref.n]
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

// compileTree fills ct with the compiled form of t's current state. When
// prev is the tree's latest compile, t.splits and t.touched list exactly
// what changed since: ct replays the splits onto the tree's node array,
// shares prev's untouched leaf chunks and re-freezes only the touched
// leaves, then compacts the arena if it outgrew its bound. Any other
// prev, or splits whose path copies no longer fit the node array, get a
// full flatten.
func compileTree(t *HoeffdingTree, prev, ct *compiledTree) {
	ct.src, ct.srcEpoch, ct.size = t, t.epoch, int32(t.NumNodes())
	if prev == nil || prev != t.compiled || !t.replaySplits() {
		t.flatten(ct)
	} else {
		// Chunks from index own on are this compile's: it may write them.
		nc := (t.NumLeaves() + leafChunkLen - 1) >> leafChunkShift
		ct.table = make([]uint32, nc)
		copy(ct.table, prev.table)
		own := uint32(len(t.chunks))
		if len(t.chunks)+nc > cap(t.chunks) { // room for a copy of every chunk
			t.moveChunks(ct.table[:len(prev.table)], nc)
			own = 0
		}
		for ci := len(prev.table); ci < nc; ci++ { // a split's fresh slot starts a chunk
			ct.table[ci] = uint32(len(t.chunks))
			t.chunks = append(t.chunks, leafChunk{})
		}
		for _, leaf := range t.touched {
			if !leaf.isLeaf() {
				continue // split since it was touched
			}
			ci, si := leaf.slot>>leafChunkShift, leaf.slot&(leafChunkLen-1)
			if ct.table[ci] < own {
				t.chunks = append(t.chunks, t.chunks[ct.table[ci]])
				ct.table[ci] = uint32(len(t.chunks) - 1)
			}
			ref := t.freezeLeaf(leaf.stats)
			chunk := &t.chunks[ct.table[ci]]
			t.arenaLive += int(ref.n) - int(chunk[si].n)
			chunk[si] = ref
			leaf.dirty = false
		}
		if len(t.arena) > 2*t.arenaLive+arenaSlack {
			t.compactArena(ct)
		}
	}
	ct.nodes, ct.chunks, ct.arena, ct.root = t.nodes, t.chunks, t.arena, t.root.cidx
	t.touched = t.touched[:0]
	t.splits = t.splits[:0]
	t.compiled = ct
}

// flatten lays the whole tree out in a fresh node array, with room for
// an eighth as many nodes again plus nodeSlack of path copies, and
// freezes every leaf into a fresh arena and leaf table.
func (t *HoeffdingTree) flatten(ct *compiledTree) {
	n := t.NumNodes()
	t.nodes = make([]cnode, 0, n+n/8+nodeSlack)
	t.arena = make([]float64, 0, 2*t.arenaLive+2*arenaSlack)
	t.arenaLive = 0
	nc := (t.NumLeaves() + leafChunkLen - 1) >> leafChunkShift
	ct.table = make([]uint32, nc)
	for i := range ct.table {
		ct.table[i] = uint32(i)
	}
	t.chunks = make([]leafChunk, nc, 2*nc+chunkSlack)
	t.addNode(t.root, new(int32))
}

// addNode appends n (and, for internal nodes, its subtree) to the node
// array in depth-first order and returns its index. *slots is the next
// free leaf slot; a leaf takes it, and with it a frozen block and a
// clean touched mark.
func (t *HoeffdingTree) addNode(n *htNode, slots *int32) int32 {
	idx := int32(len(t.nodes))
	n.cidx = idx
	t.nodes = append(t.nodes, cnode{})
	if n.isLeaf() {
		n.slot, n.dirty = *slots, false
		*slots++
		ref := t.freezeLeaf(n.stats)
		t.arenaLive += int(ref.n)
		t.chunks[n.slot>>leafChunkShift][n.slot&(leafChunkLen-1)] = ref
		t.nodes[idx] = cnode{feature: -1, left: n.slot, right: -1}
		return idx
	}
	l := t.addNode(n.left, slots)
	r := t.addNode(n.right, slots)
	t.nodes[idx] = cnode{threshold: n.threshold, feature: int32(n.feature), left: l, right: r}
	return idx
}

// replaySplits applies t.splits, in the order they happened, to the node
// array by path copying: no node a published snapshot can reach is
// written. A split leaf's two children are appended, the left in the
// leaf's slot and the right in the next free slot (the children are on
// the touched list, so the caller freezes them). Then the leaf, now
// internal, and each of its ancestors up to the root are appended again
// in their new form, each pointing at the copy below it. A split of a
// leaf at depth d appends d+3 nodes. It reports false, changing nothing,
// when they do not all fit in the node array's capacity: the caller then
// flattens the tree, which also drops the dead copies.
func (t *HoeffdingTree) replaySplits() bool {
	need := 0
	for _, n := range t.splits {
		need += n.depth + 3
	}
	if len(t.nodes)+need > cap(t.nodes) {
		return false
	}
	free := int32(t.NumLeaves() - len(t.splits)) // the leaf count before the first split
	for _, n := range t.splits {
		l, r := int32(len(t.nodes)), int32(len(t.nodes)+1)
		n.left.slot, n.left.cidx = n.slot, l
		n.right.slot, n.right.cidx = free, r
		t.nodes = append(t.nodes, cnode{feature: -1, left: n.slot, right: -1}, cnode{feature: -1, left: free, right: -1})
		free++
		nd := cnode{threshold: n.threshold, feature: int32(n.feature), left: l, right: r}
		for {
			n.cidx = int32(len(t.nodes))
			t.nodes = append(t.nodes, nd)
			p := n.parent
			if p == nil {
				break
			}
			nd = t.nodes[p.cidx]
			if p.left == n {
				nd.left = n.cidx
			} else {
				nd.right = n.cidx
			}
			n = p
		}
	}
	return true
}

// moveChunks copies the chunks table names into a fresh chunk array, with
// room for eight times nc chunks plus chunkSlack, and points table at the
// copies, which the compile under way owns.
func (t *HoeffdingTree) moveChunks(table []uint32, nc int) {
	old := t.chunks
	t.chunks = make([]leafChunk, len(table), 8*nc+chunkSlack)
	for i, c := range table {
		t.chunks[i] = old[c]
		table[i] = uint32(i)
	}
}

// compactArena moves the blocks ct's leaf table points at into a fresh
// arena, with room for twice their size plus twice arenaSlack, and the
// chunks into a fresh chunk array to point at the copies. The old arrays
// stay as they are for the snapshots that hold them.
func (t *HoeffdingTree) compactArena(ct *compiledTree) {
	t.moveChunks(ct.table, len(ct.table))
	old := t.arena
	t.arena = make([]float64, 0, 2*t.arenaLive+2*arenaSlack)
	for i := range ct.table {
		chunk := &t.chunks[i]
		for j, ref := range chunk {
			if ref.n > 0 { // slots past the last leaf are empty
				chunk[j] = leafRef{off: uint32(len(t.arena)), n: ref.n}
				t.arena = append(t.arena, old[ref.off:ref.off+ref.n]...)
			}
		}
	}
}

// freezeLeaf appends one leaf's prediction to the arena as a block (see
// leafRef for the layout) and returns where it went. The
// NaiveBayesAdaptive choice (nbCorrect > mcCorrect) is resolved here: it
// only changes under training, which marks the leaf touched so it is
// frozen again. A naive-Bayes leaf that has seen no weight votes
// all-zero, exactly what copying its zero class counts yields, so it
// freezes as majority-class.
//
//redvet:noalloc gate=TrainStep
func (t *HoeffdingTree) freezeLeaf(s *leafStats) leafRef {
	off := len(t.arena)
	nb := t.cfg.LeafPrediction == NaiveBayes ||
		(t.cfg.LeafPrediction == NaiveBayesAdaptive && s.nbCorrect > s.mcCorrect)
	if total := sum(s.classCounts); nb && total > 0 {
		t.appendNaiveBayes(s, total)
	} else {
		t.arena = append(t.arena, s.classCounts...)
	}
	return leafRef{off: uint32(off), n: uint32(len(t.arena) - off)}
}

// appendNaiveBayes appends the naive-Bayes block of a leaf that has seen
// total weight.
//
//redvet:noalloc gate=TrainStep
func (t *HoeffdingTree) appendNaiveBayes(s *leafStats, total float64) {
	nFeat := 0
	for _, obs := range s.observers {
		if obs != nil {
			nFeat++
		}
	}
	for _, cnt := range s.classCounts {
		if cnt == 0 {
			t.arena = append(t.arena, math.Inf(-1))
		} else {
			t.arena = append(t.arena, math.Log(cnt/total))
		}
	}
	t.arena = append(t.arena, float64(nFeat))
	for f, obs := range s.observers {
		if obs == nil {
			continue
		}
		t.arena = append(t.arena, float64(f))
		for c := range s.classCounts {
			w := obs.PerClass[c]
			if w.N < 2 {
				t.arena = append(t.arena, 0, 0, 0, 0)
				continue
			}
			std := w.Std()
			if std < 1e-9 {
				std = 1e-9
			}
			t.arena = append(t.arena, 1, w.Mean, std, math.Log(std))
		}
	}
}

// Epoch implements Compilable.
func (t *HoeffdingTree) Epoch() uint64 { return t.epoch }

// oneTree is a single tree's snapshot in one allocation: the header, the
// compiled tree and the one-element tree table.
type oneTree struct {
	Compiled
	tree  compiledTree
	table [1]*compiledTree
}

// CompileSnapshot implements Compilable.
func (t *HoeffdingTree) CompileSnapshot(prev *Compiled) *Compiled {
	var prevTree *compiledTree
	if prev != nil && prev.src == any(t) {
		if prev.epoch == t.epoch {
			return prev
		}
		prevTree = prev.trees[0]
	}
	c := &oneTree{Compiled: Compiled{src: t, epoch: t.epoch, numClasses: t.cfg.NumClasses, rebuilt: 1}}
	compileTree(t, prevTree, &c.tree)
	c.table[0] = &c.tree
	c.trees = c.table[:]
	return &c.Compiled
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
		c.trees[i] = new(compiledTree)
		compileTree(m.tree, prevTree, c.trees[i])
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
