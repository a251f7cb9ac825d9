package userstate

// The sliding session window. Its definition is the filter the layer has
// always applied: after appending the new entry, keep exactly the entries
// whose time is >= the new entry's time minus the window, in arrival
// order. While a user's tweets arrive in time order (one sender per user
// and shard affinity preserve it), the entries that fail the filter are a
// prefix: slide pops them from the head and keeps a
// running aggressive count, so an observation costs the entries it
// expires, not the entries it keeps. An entry older than its predecessor
// breaks the prefix property; from then until the window is back in time
// order, slide tracks the oldest time in the window and, whenever that
// has expired, applies the definition literally — one pass over every
// entry that also recounts. Concurrent senders and replayed history put a
// window into that state without expiring anything, which costs nothing.
//
// Storage is entries[head:]. The expired head is reclaimed in place
// whenever an append would otherwise grow an array that is a quarter dead,
// and a window that has shrunk to a quarter of its array moves to a
// smaller one, so the array stays within a small multiple of the live
// window in both directions.

// minShrinkCap keeps small windows out of the shrink rule: below it the
// array is not worth an allocation to give back.
const minShrinkCap = 64

// window returns the live session window, oldest arrival first.
func (r *record) window() []entry { return r.entries[r.head:] }

// windowShare returns the aggressive share of a non-empty window.
func (r *record) windowShare() float64 {
	return float64(r.winAggr) / float64(len(r.window()))
}

// slide appends e and expires every entry older than cutoff.
//
//redvet:noalloc gate=UserstateObserveHot
func (r *record) slide(e entry, cutoff int64) {
	at := e.at()
	switch n := len(r.entries); {
	case r.disordered:
		r.winMin = min(r.winMin, at)
	case n > int(r.head) && at < r.entries[n-1].at():
		r.disordered = true
		r.winMin = min(r.entries[r.head].at(), at)
	}
	if r.head > 0 && len(r.entries) == cap(r.entries) && int(r.head)*4 >= len(r.entries) {
		r.entries = r.entries[:copy(r.entries, r.entries[r.head:])]
		r.head = 0
	}
	r.entries = append(r.entries, e)
	if e.aggressive() {
		r.winAggr++
	}
	if r.disordered {
		// The oldest entry can sit anywhere; only when it has expired is
		// there anything for the definition pass to remove.
		if r.winMin < cutoff {
			r.refilter(cutoff)
		}
	} else {
		h := int(r.head)
		for h < len(r.entries) && r.entries[h].at() < cutoff {
			if r.entries[h].aggressive() {
				r.winAggr--
			}
			h++
		}
		r.head = int32(h)
	}
	if cap(r.entries) >= minShrinkCap && len(r.window())*4 <= cap(r.entries) {
		r.shrink()
	}
}

// shrink moves a window that fills at most a quarter of its array to one
// twice its size, giving the rest back. Doubling on the way up and
// quartering on the way down keeps the two from chasing each other.
func (r *record) shrink() {
	win := r.window()
	r.entries = append(make([]entry, 0, 2*len(win)), win...)
	r.head = 0
}

// refilter is the window's definition applied literally: keep the entries
// at or after cutoff in arrival order, then rederive the aggressive count,
// the oldest time, and whether what is left is back in time order.
func (r *record) refilter(cutoff int64) {
	keep := r.entries[:0]
	for _, e := range r.window() {
		if e.at() >= cutoff {
			keep = append(keep, e)
		}
	}
	r.entries, r.head = keep, 0
	r.recount()
}

// recount derives winAggr, disordered and winMin from the window itself:
// after a definition pass, and after a restore (none of the three is part
// of the checkpoint format).
func (r *record) recount() {
	r.winAggr, r.disordered = 0, false
	win := r.window()
	for i, e := range win {
		if e.aggressive() {
			r.winAggr++
		}
		switch {
		case i == 0:
			r.winMin = e.at()
		case e.at() < win[i-1].at():
			r.disordered = true
			r.winMin = min(r.winMin, e.at())
		}
	}
}
