package userstate

import (
	"math/rand"
	"strings"
	"testing"
)

// indexKeys is FuzzIndexMatchesMap's alphabet: short IDs that sit in a
// record's key bytes, and IDs past keyWidth that take the heap fallback.
var indexKeys = func() []string {
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = "u" + strings.Repeat("x", i%4) + string(rune('a'+i))
		if i%5 == 4 {
			keys[i] += strings.Repeat("-", keyWidth)
		}
	}
	return keys
}()

// indexOps is a pseudo-random op sequence for the seed corpus.
func indexOps(seed int64, n int, weak bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, n+1)
	rng.Read(ops)
	ops[0] &^= 1
	if weak {
		ops[0] |= 1
	}
	return ops
}

// FuzzIndexMatchesMap runs put, get and delete over a small key alphabet
// against a map oracle; a put of a live key moves it to another slab slot,
// as the slab's compaction does. The index starts empty and grows to its
// 16-slot minimum, so probe chains form and wrap past the last slot, and
// deletes shift them back. With the first byte odd the hash keeps only its
// low two bits, so keys share a full 64-bit hash and find must confirm the
// key. After every step each live key must be found at its slab index,
// every other key not at all, and the count must match.
func FuzzIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(indexOps(seed, 400, false))
		f.Add(indexOps(seed, 400, true))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		weak := ops[0]&1 != 0
		hash := func(k string) uint64 {
			if weak {
				return fnv64a(k) & 3
			}
			return fnv64a(k)
		}
		var x index
		recs := slab{ringLen: 1}
		free := make([]int32, len(indexKeys)+1) // one spare for a move
		for i := range free {
			free[len(free)-1-i] = recs.next()
		}
		oracle := make(map[string]int32)
		for step, op := range ops[1:] {
			k := indexKeys[int(op>>2)%len(indexKeys)]
			h := hash(k)
			switch op & 3 {
			case 0, 1: // put, or move when present
				r := free[len(free)-1]
				free = free[:len(free)-1]
				recs.at(r).id.set(k)
				if old, ok := oracle[k]; ok {
					x.move(h, old, r)
					free = append(free, old)
				} else {
					x.insert(h, r)
				}
				oracle[k] = r
			case 2: // delete, when present
				r, ok := oracle[k]
				if !ok {
					break
				}
				x.remove(h, r)
				delete(oracle, k)
				free = append(free, r)
			case 3: // get
				want, ok := oracle[k]
				if !ok {
					want = noRec
				}
				if got := x.find(h, k, &recs); got != want {
					t.Fatalf("step %d: find(%q) = %d, want %d", step, k, got, want)
				}
			}
			used := 0
			for _, s := range x.slots {
				if s.rec != noRec {
					used++
				}
			}
			if x.n != len(oracle) || used != len(oracle) {
				t.Fatalf("step %d: index counts %d, holds %d slots, oracle %d", step, x.n, used, len(oracle))
			}
			if 4*x.n > 3*len(x.slots) {
				t.Fatalf("step %d: %d entries in %d slots, over 3/4", step, x.n, len(x.slots))
			}
			for _, key := range indexKeys {
				want, ok := oracle[key]
				if !ok {
					want = noRec
				}
				if got := x.find(hash(key), key, &recs); got != want {
					t.Fatalf("step %d: after op %d on %q, find(%q) = %d, want %d", step, op&3, k, key, got, want)
				}
			}
		}
	})
}

// TestKeyCopiesLeaveTheSlot: the strings read out of a record's keys must
// not change when the slot is reused for another user, whether the key
// sits in place or in its heap fallback.
func TestKeyCopiesLeaveTheSlot(t *testing.T) {
	values := []string{"u0000001", strings.Repeat("L", keyWidth+1), "", strings.Repeat("s", keyWidth)}
	for _, id := range values {
		for _, name := range values {
			var r record
			r.id.set(id)
			r.screenName.set(name)
			if !r.id.is(id) || r.id.is(id+"x") || !r.screenName.is(name) {
				t.Fatalf("keys holding (%q, %q): is() disagrees", id, name)
			}
			gotID, gotName := r.names()
			alone := r.id.String()
			r.id.set("overwritten-by-the-next-user")
			r.screenName.set("next-user")
			if gotID != id || gotName != name || alone != id {
				t.Fatalf("copies of (%q, %q) read (%q, %q, %q) after the slot was rewritten", id, name, gotID, gotName, alone)
			}
		}
	}
}
