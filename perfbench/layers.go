package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"netrel"
	"netrel/internal/core"
	"netrel/internal/frontier"
	"netrel/internal/order"
	"netrel/internal/preprocess"
	"netrel/internal/sampling"
	"netrel/internal/ugraph"
)

// The traced runs time the pipeline from outside: they replay a query
// through each layer's public functions — preprocess.RunContext,
// order.Compute, core.NewSampler, Sampler.Resume — with the configuration
// Session.Reliability derives, and check that the replay reproduces the
// session's answer bit for bit. Spans are kept in memory and summarized
// when the run ends.

// query is one terminal-set reliability query and its options.
type query struct {
	terms   []int
	samples int
	width   int
	seed    uint64
	// stallWindow, when positive, overrides the stall rule's window
	// (netrel.WithStall with the default threshold).
	stallWindow int
}

func (q query) options(extra ...netrel.Option) []netrel.Option {
	opts := []netrel.Option{netrel.WithSamples(q.samples), netrel.WithMaxWidth(q.width), netrel.WithSeed(q.seed)}
	if q.stallWindow > 0 {
		opts = append(opts, netrel.WithStall(q.stallWindow, core.DefaultStallThreshold))
	}
	return append(opts, extra...)
}

// internalGraph returns the layers' representation of g, edge for edge.
func internalGraph(g *netrel.Graph) (*ugraph.Graph, error) {
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		return nil, err
	}
	return ugraph.ReadTSV(&buf)
}

// replaySpans is one replayed query's layer spans and solver counters.
type replaySpans struct {
	estimate    float64
	decompose   time.Duration
	order       time.Duration
	construct   time.Duration
	sample      time.Duration
	subproblems int
	solves      int // subproblems solved by the S2BDD
	core        core.Result
	// largest is the subproblem with the most edges, with its edge order,
	// for the frontier kernel measurement.
	largest *preprocess.Subproblem
	ord     []int
}

func (s *replaySpans) layerTime() time.Duration {
	return s.decompose + s.order + s.construct + s.sample
}

// replay runs q through the layers on ug with the 2ECC index idx, summing
// the core counters over the query's subproblems.
func replay(ctx context.Context, ug *ugraph.Graph, idx *preprocess.Index, q query) (*replaySpans, error) {
	ts, err := ugraph.NewTerminals(ug, q.terms)
	if err != nil {
		return nil, err
	}
	out := &replaySpans{}
	t0 := time.Now()
	prep, err := preprocess.RunContext(ctx, ug, ts, idx)
	out.decompose = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	out.subproblems = len(prep.Subproblems)
	if prep.Disconnected {
		return out, nil
	}
	est := prep.PB
	for _, sp := range prep.Subproblems {
		t0 = time.Now()
		ord := order.Compute(sp.G, order.BFS, sp.Terminals[0])
		out.order += time.Since(t0)
		cfg := core.Config{
			MaxWidth:       q.width,
			Samples:        q.samples,
			Seed:           sampling.SeedStream(q.seed, sp.Sig.Hi, sp.Sig.Lo),
			Order:          ord,
			Workers:        sampling.ClampWorkers(0, 0),
			StallWindow:    q.stallWindow,
			StallThreshold: core.DefaultStallThreshold,
		}
		t0 = time.Now()
		s, err := core.NewSampler(ctx, sp.G, sp.Terminals, cfg)
		out.construct += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("construct: %w", err)
		}
		t0 = time.Now()
		_, err = s.Resume(ctx, s.Remaining())
		var res core.Result
		if err == nil {
			res, err = s.Result()
		}
		out.sample += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		est = est.Mul(res.EstimateX)
		out.solves++
		c := &out.core
		c.LayersProcessed += res.LayersProcessed
		c.PeakWidth = max(c.PeakWidth, res.PeakWidth)
		c.NodesCreated += res.NodesCreated
		c.NodesMerged += res.NodesMerged
		c.NodesDeleted += res.NodesDeleted
		if res.Flushed {
			c.Flushed = true
		}
		c.Strata += res.Strata
		c.SamplesRequested += res.SamplesRequested
		c.SamplesReduced += res.SamplesReduced
		c.SamplesUsed += res.SamplesUsed
		if out.largest == nil || sp.G.M() > out.largest.G.M() {
			out.largest, out.ord = sp, ord
		}
	}
	out.estimate = est.Clamp01().Float64()
	return out, nil
}

// layerStats sums replay spans and counters over a traced run.
type layerStats struct {
	n, solves                                int
	decompose, order, construct, sample      time.Duration
	subproblems, layers, peak, strata, flush int
	created, merged, deleted                 int64
	requested, used                          int
	unattributed                             []float64

	plan                time.Duration
	plans               int
	applyDur, keyDur    time.Duration
	applies, keys       int
	indexUpdate, delta  time.Duration
	indexUpdates, delts int
}

func (ls *layerStats) add(s *replaySpans) {
	ls.n++
	ls.solves += s.solves
	ls.decompose += s.decompose
	ls.order += s.order
	ls.construct += s.construct
	ls.sample += s.sample
	ls.subproblems += s.subproblems
	ls.layers += s.core.LayersProcessed
	ls.peak += s.core.PeakWidth
	ls.strata += s.core.Strata
	if s.core.Flushed {
		ls.flush++
	}
	ls.created += s.core.NodesCreated
	ls.merged += s.core.NodesMerged
	ls.deleted += s.core.NodesDeleted
	ls.requested += s.core.SamplesRequested
	ls.used += s.core.SamplesUsed
}

// kernelApplies bounds the frontier kernel measurement per query.
const kernelApplies = 200_000

// frontierKernel drives frontier.Plan.Apply and State.Key over the plan
// of g, ts and ord: starting from Root, it expands every state of a layer
// both ways, keys the live children, and keeps the first width distinct
// ones, until kernelApplies calls or the last layer. Apply and Key are
// timed per layer, outside the bookkeeping.
func (ls *layerStats) frontierKernel(g *ugraph.Graph, ts ugraph.Terminals, ord []int, width int) error {
	t0 := time.Now()
	p, err := frontier.NewPlan(g, ts, ord)
	ls.plan += time.Since(t0)
	ls.plans++
	if err != nil {
		return err
	}
	sc := frontier.NewScratch(p)
	cur := []frontier.State{p.Root()}
	var next []frontier.State
	var key []byte
	seen := map[string]struct{}{}
	applies := 0
	for l := 0; l < p.M() && len(cur) > 0 && applies < kernelApplies; l++ {
		if len(next) < 2*len(cur) {
			next = append(next, make([]frontier.State, 2*len(cur)-len(next))...)
		}
		n := 0
		t0 := time.Now()
		for i := range cur {
			if p.Apply(l, &cur[i], true, true, sc, &next[n]) == frontier.Live {
				n++
			}
			if p.Apply(l, &cur[i], false, true, sc, &next[n]) == frontier.Live {
				n++
			}
		}
		ls.applyDur += time.Since(t0)
		applies += 2 * len(cur)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			key = next[i].Key(key[:0])
		}
		ls.keyDur += time.Since(t0)
		ls.keys += n
		clear(seen)
		m := 0
		for i := 0; i < n && m < width; i++ {
			key = next[i].Key(key[:0])
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			next[m], next[i] = next[i], next[m]
			m++
		}
		cur, next = next[:m], cur[:cap(cur)]
	}
	ls.applies += applies
	return nil
}

// replayDeltas applies deltas in order to ug through ugraph.ApplyDelta,
// maintaining idx through preprocess.Index.Update, and times both.
func (ls *layerStats) replayDeltas(ug *ugraph.Graph, idx *preprocess.Index, deltas []ugraph.Delta) error {
	for _, d := range deltas {
		t0 := time.Now()
		next, oldToNew, err := ugraph.ApplyDelta(ug, d)
		ls.delta += time.Since(t0)
		ls.delts++
		if err != nil {
			return fmt.Errorf("apply delta: %w", err)
		}
		t0 = time.Now()
		up := idx.Update(ug, next, d, oldToNew)
		ls.indexUpdate += time.Since(t0)
		ls.indexUpdates++
		ug, idx = next, up.Index
	}
	return nil
}

// setLayerMetrics records the replay-derived per-layer metrics.
func (r *run) setLayerMetrics(ls *layerStats) {
	n := float64(ls.n)
	r.set("preprocess.decompose_ms", ms(ls.decompose)/n)
	r.set("preprocess.subproblems", float64(ls.subproblems)/n)
	r.set("order.ms", ms(ls.order)/n)
	r.set("frontier.plan_ms", ratio(ms(ls.plan), float64(ls.plans)))
	r.set("frontier.apply_ns", ratio(float64(ls.applyDur), float64(ls.applies)))
	r.set("frontier.key_ns", ratio(float64(ls.keyDur), float64(ls.keys)))
	r.set("core.construct_ms", ms(ls.construct)/n)
	r.set("core.construct_share", ratio(float64(ls.construct), float64(ls.construct+ls.sample)))
	r.set("core.sample_ms", ms(ls.sample)/n)
	r.set("core.draws_per_s", ratio(float64(ls.used), ls.sample.Seconds()))
	r.set("core.samples_used", float64(ls.used)/n)
	r.set("core.sample_reduction", ratio(float64(ls.requested), float64(ls.used)))
	solves := float64(max(ls.solves, 1))
	r.set("core.layers", float64(ls.layers)/solves)
	r.set("core.peak_width", float64(ls.peak)/n)
	r.set("core.nodes_created", float64(ls.created)/n)
	r.set("core.nodes_merged", float64(ls.merged)/n)
	r.set("core.nodes_deleted", float64(ls.deleted)/n)
	r.set("core.flushed", float64(ls.flush)/n)
	r.set("core.strata", float64(ls.strata)/n)
	if len(ls.unattributed) > 0 {
		r.set("netrel.unattributed_ms", quantile(ls.unattributed, 0.5))
	}
	r.set("preprocess.index_update_ms", ratio(ms(ls.indexUpdate), float64(ls.indexUpdates)))
	r.set("ugraph.apply_delta_ms", ratio(ms(ls.delta), float64(ls.delts)))
}

// indexBuildMS times preprocess.BuildIndex on ug, median of reps builds.
func indexBuildMS(ug *ugraph.Graph, reps int) (float64, *preprocess.Index) {
	var xs []float64
	var idx *preprocess.Index
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		idx = preprocess.BuildIndex(ug)
		xs = append(xs, ms(time.Since(t0)))
	}
	return quantile(xs, 0.5), idx
}

// sameBits reports whether two answers are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
