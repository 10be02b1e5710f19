package frontier

import (
	"math/rand/v2"
	"testing"

	"netrel/internal/ugraph"
)

// TestStateIndexMatchesKeyTable feeds the reachable states of random plans,
// duplicates included, to a string-keyed table built on Key and to two
// StateIndexes — one on Hash, one with every state on a single hash value,
// so every lookup walks the collision chain. All three must assign the
// same ids, and Reset must leave an index that does so again.
func TestStateIndexMatchesKeyTable(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 12))
	var hashed, collided StateIndex
	for trial := 0; trial < 40; trial++ {
		g := randConnected(r, 6+r.IntN(10), r.IntN(12))
		ts, err := ugraph.NewTerminals(g, []int{0, g.N() - 1})
		if err != nil {
			t.Fatal(err)
		}
		p := mustPlan(t, g, ts, r.Perm(g.M()))
		sc := NewScratch(p)
		layer := []State{p.Root()}
		for l := 0; l < p.M() && len(layer) > 0; l++ {
			byKey := map[string]int32{}
			hashed.Reset()
			collided.Reset()
			var next []State
			for i := range layer {
				for _, exists := range [2]bool{true, false} {
					var out State
					if p.Apply(l, &layer[i], exists, true, sc, &out) != Live {
						continue
					}
					h := out.Hash()
					want, ok := byKey[string(out.Key(nil))]
					if !ok {
						want = -1
					}
					if got := hashed.Lookup(h, &out); got != want {
						t.Fatalf("trial %d layer %d: hashed lookup %d, key table %d", trial, l, got, want)
					}
					if got := collided.Lookup(0, &out); got != want {
						t.Fatalf("trial %d layer %d: colliding lookup %d, key table %d", trial, l, got, want)
					}
					if ok {
						if same := &next[want]; same.Hash() != h || !same.SameKey(&out) {
							t.Fatalf("trial %d layer %d: equal keys, unequal Hash or SameKey", trial, l)
						}
						continue
					}
					id := int32(len(next))
					byKey[string(out.Key(nil))] = id
					if a, b := hashed.Insert(h, out), collided.Insert(0, out); a != id || b != id {
						t.Fatalf("trial %d layer %d: insert ids %d/%d, want %d", trial, l, a, b, id)
					}
					next = append(next, out)
				}
			}
			layer = next
		}
	}
}

func TestSameKeyIgnoresTerminalCounts(t *testing.T) {
	a := State{Comp: []uint16{0, 1, 0}, Flag: []bool{true, false}, Tcnt: []uint16{2, 0}}
	b := State{Comp: []uint16{0, 1, 0}, Flag: []bool{true, false}, Tcnt: []uint16{1, 0}}
	if !a.SameKey(&b) || a.Hash() != b.Hash() {
		t.Fatal("terminal counts are not part of the merge key")
	}
	for _, c := range []State{
		{Comp: []uint16{0, 1, 1}, Flag: []bool{true, false}},
		{Comp: []uint16{0, 1, 0}, Flag: []bool{false, false}},
		{Comp: []uint16{0, 1}, Flag: []bool{true, false}},
	} {
		if a.SameKey(&c) {
			t.Fatalf("%+v and %+v must not share a key", a, c)
		}
	}
}

// TestHashCoversWideStates checks that Hash reads every component label
// and every flag of a state wider than one 64-flag word.
func TestHashCoversWideStates(t *testing.T) {
	const w = 150
	a := State{Comp: make([]uint16, w), Flag: make([]bool, w)}
	for i := range a.Comp {
		a.Comp[i] = uint16(i)
	}
	for i := 0; i < w; i++ {
		b := a.Clone()
		b.Flag[i] = true
		if b.SameKey(&a) || b.Hash() == a.Hash() {
			t.Fatalf("flag %d: flipped state keeps the key or the hash", i)
		}
		c := a.Clone()
		c.Comp[i] = w
		if c.SameKey(&a) || c.Hash() == a.Hash() {
			t.Fatalf("comp %d: relabelled state keeps the key or the hash", i)
		}
	}
}
