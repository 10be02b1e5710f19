package frontier_test

import (
	"bytes"
	"testing"

	"netrel/datasets"
	"netrel/internal/frontier"
	"netrel/internal/order"
	"netrel/internal/ugraph"
)

// BenchmarkNewPlan plans the whole DBLP1 graph at Small scale (seed 1) in
// BFS order from the first of four random terminals.
func BenchmarkNewPlan(b *testing.B) {
	g, err := datasets.Generate("DBLP1", datasets.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		b.Fatal(err)
	}
	ug, err := ugraph.ReadTSV(&buf)
	if err != nil {
		b.Fatal(err)
	}
	terms, err := datasets.RandomTerminals(g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := ugraph.NewTerminals(ug, terms)
	if err != nil {
		b.Fatal(err)
	}
	ord := order.Compute(ug, order.BFS, terms[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := frontier.NewPlan(ug, ts, ord)
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = p
	}
}

var benchPlan *frontier.Plan
