package frontier

import (
	"math/bits"
	"slices"
)

// Hash returns a 64-bit hash of the mergeable part of the state — the
// partition and the terminal flags of Lemma 4.3, exactly what Key encodes.
// States with equal keys hash equally; distinct keys may collide, so a
// hash match must be confirmed with SameKey.
func (s *State) Hash() uint64 {
	const seed, mul = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := seed ^ uint64(len(s.Comp))<<32 ^ uint64(len(s.Flag))
	var w uint64
	n := 0
	for _, c := range s.Comp {
		w = w<<16 | uint64(c)
		if n++; n == 4 {
			h = mix(h^w, mul)
			w, n = 0, 0
		}
	}
	if n > 0 {
		h = mix(h^w, mul)
		w, n = 0, 0
	}
	for _, f := range s.Flag {
		w <<= 1
		if f {
			w |= 1
		}
		if n++; n == 64 {
			h = mix(h^w, mul)
			w, n = 0, 0
		}
	}
	return mix(h^w, mul)
}

// mix folds the full 128-bit product of a and b into 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// SameKey reports whether s and o have the same merge key (Lemma 4.3):
// equal partitions and equal terminal flags. Tcnt is not part of the key.
func (s *State) SameKey(o *State) bool {
	return slices.Equal(s.Comp, o.Comp) && slices.Equal(s.Flag, o.Flag)
}

// StateIndex maps states by merge key to dense ids 0, 1, 2, … in insertion
// order. It is the dedup table of both layer constructions: lookups go
// through the caller-supplied Hash and every hash hit is confirmed with
// SameKey, with colliding keys chained, so its answers are exactly those of
// a table keyed by Key. The index shares the inserted states' storage,
// which must not change while they are indexed. The zero value is ready to
// use; Reset empties it while keeping its storage.
type StateIndex struct {
	heads map[uint64]int32 // hash → most recently inserted id with that hash
	keys  []State          // id → indexed state
	chain []int32          // id → previous id with the same hash, or -1
}

// Reset removes every entry, keeping the storage for reuse.
func (x *StateIndex) Reset() {
	clear(x.heads)
	clear(x.keys) // drop references to the states' storage
	x.keys = x.keys[:0]
	x.chain = x.chain[:0]
}

// Lookup returns the id of the indexed state whose key equals s's, or -1.
// h must be s.Hash() or, consistently for the whole index, any function of
// the key.
func (x *StateIndex) Lookup(h uint64, s *State) int32 {
	j, ok := x.heads[h]
	if !ok {
		return -1
	}
	for ; j >= 0; j = x.chain[j] {
		if x.keys[j].SameKey(s) {
			return j
		}
	}
	return -1
}

// Insert indexes s under hash h and returns its id, the number of states
// indexed before it. s's key must not already be indexed.
func (x *StateIndex) Insert(h uint64, s State) int32 {
	if x.heads == nil {
		x.heads = make(map[uint64]int32)
	}
	prev, ok := x.heads[h]
	if !ok {
		prev = -1
	}
	id := int32(len(x.keys))
	x.heads[h] = id
	x.keys = append(x.keys, s)
	x.chain = append(x.chain, prev)
	return id
}
