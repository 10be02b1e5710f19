package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"netrel"
	"netrel/datasets"
	"netrel/internal/core"
)

// TestGoldenUnderHashCollisions replays the golden regression queries with
// every construction-table state forced onto one hash value, across a
// Workers × ConstructionWorkers sweep. Merge decisions then rest entirely
// on the exact key comparisons of the collision chains, and every answer
// must still match testdata/golden.json bit for bit.
func TestGoldenUnderHashCollisions(t *testing.T) {
	data, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Cases []struct {
			Name      string `json:"name"`
			Dataset   string `json:"dataset"`
			GraphSeed uint64 `json:"graph_seed"`
			Terminals []int  `json:"terminals"`
			Exact     bool   `json:"exact"`
			Samples   int    `json:"samples"`
			MaxWidth  int    `json:"max_width"`
			Seed      uint64 `json:"seed"`
			Expect    struct {
				Reliability float64 `json:"reliability"`
				Lower       float64 `json:"lower"`
				Upper       float64 `json:"upper"`
				Exact       bool    `json:"exact"`
				SamplesUsed int     `json:"samples_used"`
			} `json:"expect"`
		} `json:"cases"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Cases) == 0 {
		t.Fatal("golden file has no cases")
	}

	core.ForceHashCollisions(t)
	for _, c := range golden.Cases {
		g, err := datasets.Generate(c.Dataset, datasets.Small, c.GraphSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range [][2]int{{1, 1}, {3, 2}} {
			opts := []netrel.Option{netrel.WithMaxWidth(c.MaxWidth), netrel.WithWorkers(w[0]), netrel.WithConstructionWorkers(w[1])}
			var res *netrel.Result
			if c.Exact {
				res, err = netrel.Exact(g, c.Terminals, opts...)
			} else {
				opts = append(opts, netrel.WithSamples(c.Samples), netrel.WithSeed(c.Seed))
				res, err = netrel.Reliability(g, c.Terminals, opts...)
			}
			label := fmt.Sprintf("%s workers=%d/%d", c.Name, w[0], w[1])
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			e := c.Expect
			if res.Reliability != e.Reliability || res.Lower != e.Lower || res.Upper != e.Upper ||
				res.Exact != e.Exact || res.SamplesUsed != e.SamplesUsed {
				t.Fatalf("%s: got %v [%v,%v] exact=%v used=%d, golden %+v", label,
					res.Reliability, res.Lower, res.Upper, res.Exact, res.SamplesUsed, e)
			}
		}
	}
}
