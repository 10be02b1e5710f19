package frontier

import (
	"math/rand/v2"
	"slices"
	"testing"

	"netrel/internal/ugraph"
)

// referenceSteps is the map-based frontier simulation NewPlan used before
// the Fenwick slot computation: it rebuilds the whole frontier's slot map at
// every layer, which is O(m·|F|) but obviously follows AdvanceFrontier's
// ordering rule. It is kept as the oracle for TestPlanMatchesReference.
func referenceSteps(p *Plan) ([]layerStep, int) {
	g, m := p.g, p.g.M()
	steps := make([]layerStep, m)
	slotOf := make(map[int32]int32, 64)
	flen, maxFrontier := 0, 0
	for l := 0; l < m; l++ {
		e := g.Edge(p.order[l])
		st := layerStep{edge: e, slotU: -1, slotV: -1, flen: int32(flen)}
		if s, ok := slotOf[int32(e.U)]; ok {
			st.slotU = s
		}
		if s, ok := slotOf[int32(e.V)]; ok {
			st.slotV = s
		}
		st.uRetires = p.lastTouch[e.U] == int32(l)
		st.vRetires = p.lastTouch[e.V] == int32(l)
		steps[l] = st

		next := make([]int32, 0, flen+2)
		cur := make([]int32, flen)
		for v, s := range slotOf {
			cur[s] = v
		}
		for _, v := range cur {
			if (v == int32(e.U) && st.uRetires) || (v == int32(e.V) && st.vRetires) {
				continue
			}
			next = append(next, v)
		}
		if st.slotU == -1 && !st.uRetires {
			next = append(next, int32(e.U))
		}
		if st.slotV == -1 && !st.vRetires && e.V != e.U {
			next = append(next, int32(e.V))
		}
		clear(slotOf)
		for s, v := range next {
			slotOf[v] = int32(s)
		}
		flen = len(next)
		maxFrontier = max(maxFrontier, flen)
	}
	return steps, maxFrontier
}

// randPlanGraph builds a graph of 1–3 disconnected parts with random edges,
// self-loops, parallel edges, pendant (degree-1) vertices and isolated
// vertices.
func randPlanGraph(r *rand.Rand) *ugraph.Graph {
	n := 3 + r.IntN(40)
	parts := 1 + r.IntN(3)
	g := ugraph.New(n)
	add := func(u, v int) {
		if _, err := g.AddEdge(u, v, 0.05+0.9*r.Float64()); err != nil {
			panic(err)
		}
	}
	for i, edges := 0, r.IntN(3*n); i < edges; i++ {
		u := r.IntN(n)
		switch v := r.IntN(n); {
		case r.IntN(10) == 0:
			add(u, u) // self-loop
		case v%parts == u%parts:
			add(u, v)
		}
	}
	for i, pendants := 0, r.IntN(4); i < pendants; i++ {
		add(r.IntN(n), r.IntN(n)) // often a vertex's only edge
	}
	if g.M() == 0 {
		add(0, n-1)
	}
	return g
}

// TestPlanMatchesReference checks every layer step and the maximum width of
// NewPlan against the map-based reference simulation, over random graphs
// and random edge orders, and checks that the slots agree with the
// frontier AdvanceFrontier maintains and that the unseen terminals come in
// first-touch order.
func TestPlanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(2019, 12))
	var pendants, loneLoops, disconnected int
	for trial := 0; trial < 2000; trial++ {
		g := randPlanGraph(r)
		ord := r.Perm(g.M())
		deg := make([]int, g.N())
		loops := make([]int, g.N())
		uf := make([]int, g.N())
		for i := range uf {
			uf[i] = i
		}
		find := func(v int) int {
			for uf[v] != v {
				v = uf[v]
			}
			return v
		}
		var touched []int
		parts := 0 // components with at least one edge
		for _, e := range g.Edges() {
			for _, v := range [2]int{e.U, e.V} {
				if deg[v] == 0 {
					touched = append(touched, v)
					parts++
				}
				deg[v]++ // a self-loop counts twice
			}
			if e.U == e.V {
				loops[e.U]++
			}
			if a, b := find(e.U), find(e.V); a != b {
				uf[a] = b
				parts--
			}
		}
		for v, d := range deg {
			if d == 1 {
				pendants++
			}
			if d == 2 && loops[v] == 1 {
				loneLoops++
			}
		}
		if parts > 1 {
			disconnected++
		}
		r.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
		ts, err := ugraph.NewTerminals(g, touched[:min(len(touched), 4)])
		if err != nil {
			t.Fatal(err)
		}
		p := mustPlan(t, g, ts, ord)
		// Unseen terminals: by first touch, ties in terminal order.
		buckets := make([][]int32, g.M()+1)
		for _, v := range ts {
			buckets[p.FirstTouch(v)] = append(buckets[p.FirstTouch(v)], int32(v))
		}
		for l := 0; l <= g.M(); l++ {
			want := []int32{}
			for _, b := range buckets[l:] {
				want = append(want, b...)
			}
			if got := p.UnseenTerms(l); !slices.Equal(got, want) || p.UnseenFrom(l) != len(want) {
				t.Fatalf("trial %d layer %d: unseen terminals %v (%d), want %v", trial, l, got, p.UnseenFrom(l), want)
			}
		}
		want, wantMax := referenceSteps(p)
		if p.MaxFrontier() != wantMax {
			t.Fatalf("trial %d: MaxFrontier %d, reference %d", trial, p.MaxFrontier(), wantMax)
		}
		var cur, next []int32
		for l := range want {
			if p.layers[l] != want[l] {
				t.Fatalf("trial %d layer %d: step %+v, reference %+v", trial, l, p.layers[l], want[l])
			}
			st := p.layers[l]
			for _, c := range [2]struct {
				v    int
				slot int32
			}{{st.edge.U, st.slotU}, {st.edge.V, st.slotV}} {
				if c.slot >= 0 && cur[c.slot] != int32(c.v) {
					t.Fatalf("trial %d layer %d: slot %d holds %d, not %d", trial, l, c.slot, cur[c.slot], c.v)
				}
			}
			next = p.AdvanceFrontier(l, cur, next)
			cur, next = next, cur
		}
	}
	// Degree-1 vertices and vertices whose only edge is a self-loop are the
	// ones whose first and last edge coincide: they enter and retire at the
	// same layer and never take a slot.
	if pendants == 0 || loneLoops == 0 || disconnected == 0 {
		t.Fatalf("generator missed a shape: %d degree-1 vertices, %d lone self-loops, %d disconnected graphs",
			pendants, loneLoops, disconnected)
	}
}
