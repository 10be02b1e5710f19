package core

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"netrel/internal/estimator"
	"netrel/internal/ugraph"
)

// TestHashCollisionsBitIdentical forces every live child onto one hash
// value, so the chunk and layer indexes resolve each merge by walking the
// collision chain with exact key comparisons. Every Result — one-shot
// across a Workers × ConstructionWorkers sweep, and resumed through a
// Sampler — must equal the uncollided run's bit for bit.
func TestHashCollisionsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	wide := randConnected(r, 40, 90)
	wideTs, err := ugraph.NewTerminals(wide, []int{0, 13, 27, 39})
	if err != nil {
		t.Fatal(err)
	}
	small := randConnected(r, 14, 16)
	smallTs, err := ugraph.NewTerminals(small, []int{0, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		name string
		g    *ugraph.Graph
		ts   ugraph.Terminals
		cfg  Config
	}
	cases := []workload{
		{"mc/overflow", wide, wideTs, Config{MaxWidth: 96, Samples: 2000, Seed: 3, Order: bfsOrder(wide, wideTs)}},
		{"ht/overflow", wide, wideTs, Config{MaxWidth: 96, Samples: 2000, Seed: 3, Order: bfsOrder(wide, wideTs), Estimator: estimator.HorvitzThompson}},
		{"bounds-only", wide, wideTs, Config{MaxWidth: 160, Seed: 3, Order: bfsOrder(wide, wideTs)}},
		{"exact", small, smallTs, Config{MaxWidth: 1 << 12, Samples: 100, Seed: 3, ExactOnly: true, Order: bfsOrder(small, smallTs)}},
	}
	base := make([]Result, len(cases))
	for i, c := range cases {
		cfg := c.cfg
		cfg.Workers, cfg.ConstructionWorkers = 1, 1
		res, err := Compute(c.g, c.ts, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.NodesMerged == 0 {
			t.Fatalf("%s: workload merges no nodes; the chain is never consulted", c.name)
		}
		base[i] = res
	}

	ForceHashCollisions(t)
	for i, c := range cases {
		for _, w := range []int{1, 3} {
			for _, cw := range []int{1, 2, 5} {
				cfg := c.cfg
				cfg.Workers, cfg.ConstructionWorkers = w, cw
				got, err := Compute(c.g, c.ts, cfg)
				if err != nil {
					t.Fatalf("%s w=%d cw=%d: %v", c.name, w, cw, err)
				}
				if !reflect.DeepEqual(got, base[i]) {
					t.Fatalf("%s w=%d cw=%d: colliding hashes changed the result:\n got %+v\nwant %+v", c.name, w, cw, got, base[i])
				}
			}
		}
		if c.cfg.ExactOnly {
			continue
		}
		s, err := NewSampler(context.Background(), c.g, c.ts, c.cfg)
		if err != nil {
			t.Fatalf("%s sampler: %v", c.name, err)
		}
		if _, err := s.Resume(context.Background(), s.Remaining()); err != nil {
			t.Fatalf("%s resume: %v", c.name, err)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatalf("%s sampler result: %v", c.name, err)
		}
		sameResult(t, c.name+"/sampler", got, base[i])
	}
}
