// Package bdd implements the paper's comparison baseline: the classic
// frontier-based BDD construction for exact k-terminal reliability
// (Hardy et al. 2007; the TdZDD-style method of Section 3.2.1).
//
// Unlike the S2BDD, the baseline materializes every layer of the diagram and
// uses only the classic sink detection (a component must retire before it
// can hit a sink — no early termination). Its memory therefore grows with
// the full BDD size, which is what makes it fail on large graphs; a node
// budget reproduces the paper's DNF outcome deterministically.
package bdd

import (
	"context"
	"errors"
	"fmt"

	"netrel/internal/frontier"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
	"netrel/internal/xfloat"
)

// ErrMemoryLimit reports that the BDD exceeded its node budget — the
// analogue of the paper's "DNF (did not finish: out of memory)".
var ErrMemoryLimit = errors.New("bdd: node budget exceeded (DNF)")

// DefaultNodeBudget bounds total BDD nodes. At ~100 bytes a node this is a
// few GB, mirroring the paper's observation that exact BDDs handle only
// graphs of 100–200 edges.
const DefaultNodeBudget = 20_000_000

// Options configures construction.
type Options struct {
	// Order is the edge processing order; nil means the natural order.
	Order []int
	// NodeBudget caps total nodes across all layers; ≤0 selects
	// DefaultNodeBudget.
	NodeBudget int
	// Workers bounds the goroutines used to expand each layer; ≤0 selects
	// GOMAXPROCS. Parents are chunked by fixed size and chunk results merge
	// in chunk order, so the reliability is bit-identical for every worker
	// count.
	Workers int
	// Exec optionally lends shared-pool goroutines to the layer expansion
	// (see sampling.ForEachChunkCtx); nil spawns goroutines per layer.
	// Results do not depend on it.
	Exec sampling.Executor
}

// Result reports the exact reliability and construction statistics.
type Result struct {
	Reliability xfloat.F
	// Nodes is the total number of BDD nodes created (the paper's "size of
	// the BDD").
	Nodes int
	// PeakWidth is the widest layer.
	PeakWidth int
	// Layers is the number of edge layers processed (always m on success).
	Layers int
}

type node struct {
	state frontier.State
	p     xfloat.F
}

// Compute builds the full BDD and returns the exact reliability.
func Compute(g *ugraph.Graph, ts ugraph.Terminals, opts Options) (Result, error) {
	return ComputeContext(context.Background(), g, ts, opts)
}

// ComputeContext is Compute with cancellation: construction checks ctx at
// every layer (and the chunked expansion at every chunk boundary), so a
// cancelled run returns ctx.Err() promptly. ctx never changes the
// reliability an uncancelled run computes.
func ComputeContext(ctx context.Context, g *ugraph.Graph, ts ugraph.Terminals, opts Options) (Result, error) {
	if err := g.Validate(); err != nil {
		return Result{}, err
	}
	if len(ts) <= 1 {
		return Result{Reliability: xfloat.One}, nil
	}
	ord := opts.Order
	if ord == nil {
		ord = make([]int, g.M())
		for i := range ord {
			ord[i] = i
		}
	}
	budget := opts.NodeBudget
	if budget <= 0 {
		budget = DefaultNodeBudget
	}
	plan, err := frontier.NewPlan(g, ts, ord)
	if err != nil {
		return Result{}, err
	}

	workers := sampling.ClampWorkers(opts.Workers, 0)
	cur := []node{{state: plan.Root(), p: xfloat.One}}
	res := Result{Nodes: 1, PeakWidth: 1}
	pc := xfloat.Zero
	var index frontier.StateIndex // merge key → position in next

	for l := 0; l < plan.M(); l++ {
		if len(cur) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Expand the layer in fixed-size parent chunks (worker-count
		// independent), then merge chunk outputs in chunk order so the
		// xfloat sums fold in a fixed sequence regardless of scheduling.
		// The budget check happens at merge, where unique nodes are known
		// (an in-flight check would count cross-chunk duplicates and DNF
		// graphs the sequential construction could finish). The transient
		// cost is bounded: a layer clones at most 2·len(cur) ≤ 2·budget
		// states before the guard fires, versus ~budget sequentially.
		nchunks := (len(cur) + parentChunk - 1) / parentChunk
		outs := make([]chunkResult, nchunks)
		if err := sampling.ForEachChunkCtx(ctx, opts.Exec, nchunks, workers, func() func(int) {
			sc := frontier.NewScratch(plan)
			var scratch frontier.State
			var local frontier.StateIndex
			return func(c int) {
				lo := c * parentChunk
				hi := min(lo+parentChunk, len(cur))
				outs[c] = expandChunk(plan, l, cur[lo:hi], sc, &scratch, &local)
			}
		}); err != nil {
			return Result{}, err
		}

		index.Reset()
		next := make([]node, 0, 2*len(cur))
		for _, co := range outs {
			if !co.pc.IsZero() {
				pc = pc.Add(co.pc)
			}
			for _, en := range co.entries {
				if j := index.Lookup(en.hash, &en.state); j >= 0 {
					next[j].p = next[j].p.Add(en.p)
				} else {
					index.Insert(en.hash, en.state)
					next = append(next, node{state: en.state, p: en.p})
					res.Nodes++
					if res.Nodes > budget {
						return Result{}, fmt.Errorf("%w: >%d nodes at layer %d/%d",
							ErrMemoryLimit, budget, l+1, plan.M())
					}
				}
			}
		}
		if len(next) > res.PeakWidth {
			res.PeakWidth = len(next)
		}
		cur = next
		res.Layers = l + 1
	}
	if len(cur) != 0 {
		// Every state must resolve by the last layer; a live state here
		// indicates a transition-rule bug.
		return Result{}, fmt.Errorf("bdd: %d unresolved states after final layer", len(cur))
	}
	res.Reliability = pc.Clamp01()
	return res, nil
}
