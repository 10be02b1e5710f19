package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"netrel"
	"netrel/datasets"
	"netrel/internal/ugraph"
)

// graphSeed fixes every workload's graph: the workload seed varies the
// queries, never the graph they run on.
const graphSeed = 42

// inproc describes a workload that calls a warm netrel.Session in-process
// from one closed-loop client.
type inproc struct {
	dataset string
	// next returns the i-th query of the run, drawn from rng.
	next func(i int, rng *rand.Rand) query
	// accuracyOps is the fixed prefix of queries over which the accuracy
	// metrics are taken, so they are deterministic per seed; the run goes
	// on past its time until the prefix is complete.
	accuracyOps int
	// exact, when set, returns the exact reliability of the i-th query,
	// where one was computed.
	exact func(i int) (float64, bool)
	// checkResult adds workload-specific output checks; finish, run-wide
	// ones.
	checkResult func(r *run, q query, res *netrel.Result)
	finish      func(r *run)
	// regime checks the traced run's layer shares.
	regime func(r *run)
}

// constructDBLP: the paper's default configuration on a co-authorship
// graph, where S2BDD construction dominates the solve.
func runConstructDBLP(r *run) error {
	const k, samples, width, accuracyOps = 4, 1000, 10_000, 24
	var g *netrel.Graph
	w := inproc{
		dataset:     "DBLP1",
		accuracyOps: accuracyOps,
		next: func(i int, rng *rand.Rand) query {
			// Interval width depends mostly on the terminal set, so the
			// queries ci_width is taken over use the same sets for every
			// seed; only their sample seeds vary. Later queries draw
			// fresh sets.
			tseed := rng.Uint64()
			if i < accuracyOps {
				tseed = uint64(i)
			}
			ts, _ := datasets.RandomTerminals(g, k, tseed)
			// A 32-layer stall window lets construction run to its work
			// budget: with the default 16, about half of random terminal
			// sets stall at layer 17, before the width cap is reached, and
			// per-query latency splits into two modes.
			return query{terms: ts, samples: samples, width: width, seed: rng.Uint64(), stallWindow: 32}
		},
		regime: func(r *run) {
			share := r.values["core.construct_share"]
			r.check(share >= 0.6, "regime: construct-dblp core.construct_share %.3f < 0.6", share)
		},
	}
	return w.run(r, func(gg *netrel.Graph) { g = gg })
}

// sampleKarate: a narrow width and a large sample budget on Karate, where
// stratified completion sampling dominates and exact answers are feasible.
func runSampleKarate(r *run) error {
	// Width 2 leaves over 90% of the Theorem 1 budget to sampling; at
	// widths 4–16 construction resolves 20–50% of the mass, and so do
	// 2-terminal sets at width 2.
	const samples, width, exactRefs = 20_000, 2, 48
	var g *netrel.Graph
	next := func(i int, rng *rand.Rand) query {
		ts, _ := datasets.RandomTerminals(g, 3+rng.IntN(3), rng.Uint64())
		return query{terms: ts, samples: samples, width: width, seed: rng.Uint64()}
	}
	refs := map[int]float64{}
	var used, reduced int
	w := inproc{
		dataset:     "Karate",
		accuracyOps: 512,
		next:        next,
		exact: func(i int) (float64, bool) {
			e, ok := refs[i]
			return e, ok
		},
		checkResult: func(r *run, q query, res *netrel.Result) {
			used += res.SamplesUsed
			reduced += res.SamplesReduced
		},
		finish: func(r *run) {
			// The run must sample, not slip into resolving nearly all mass
			// during construction: at least 90% of the Theorem 1 budget s′
			// is drawn, summed over the run.
			share := float64(used) / float64(reduced)
			logf("drew %d of %d Theorem 1 draws (%.3f)", used, reduced, share)
			r.check(share >= 0.9, "sample-karate drew %.3f of its Theorem 1 budget, want ≥ 0.9", share)
		},
		regime: func(r *run) {
			share := r.values["core.construct_share"]
			r.check(share <= 0.1, "regime: sample-karate sample share %.3f < 0.9", 1-share)
		},
	}
	return w.run(r, func(gg *netrel.Graph) {
		g = gg
		// Exact references for the run's first queries, computed before
		// timing starts. Terminal sets whose exact BDD outgrows the width
		// cap get none.
		rng := queryStream(r.cfg.seed)
		t0 := time.Now()
		for i := 0; i < exactRefs; i++ {
			q := next(i, rng)
			e, err := netrel.Exact(g, q.terms, netrel.WithMaxWidth(1<<12))
			if errors.Is(err, netrel.ErrNotExact) {
				continue
			}
			if err != nil {
				r.fail("exact reference %v: %v", q.terms, err)
				continue
			}
			refs[i] = e.Reliability
		}
		logf("exact references: %d of the first %d queries in %.2fs", len(refs), exactRefs, time.Since(t0).Seconds())
	})
}

// queryStream is the random stream a workload draws its queries from.
func queryStream(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x71756572)) }

// run drives the workload: set-up, then the closed loop — untraced for
// the whole run, or untraced for the first half and traced for the second.
func (w *inproc) run(r *run, onGraph func(*netrel.Graph)) error {
	var g *netrel.Graph
	var sess *netrel.Session
	setup, err := medianSetup(51, func() error {
		var err error
		g, err = datasets.Generate(w.dataset, datasets.Small, graphSeed)
		if err != nil {
			return err
		}
		sess = netrel.NewSession(g)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	onGraph(g)
	if r.failed > 0 {
		return fmt.Errorf("set-up failed: %v", r.problems)
	}
	logf("%s: %d vertices, %d edges", w.dataset, g.N(), g.M())

	ug, err := internalGraph(g)
	if err != nil {
		return err
	}
	buildMS, idx := indexBuildMS(ug, 15)
	r.set("preprocess.index_build_ms", buildMS)

	rng := queryStream(r.cfg.seed)
	// Warm the session: one query outside the measurement.
	warm := w.next(0, rand.New(rand.NewPCG(r.cfg.seed, 0x7761726d)))
	if _, err := sess.Reliability(warm.terms, warm.options()...); err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}

	untracedFor := r.cfg.seconds
	if r.cfg.trace {
		untracedFor /= 2
	}
	eng := netrel.DefaultEngine()
	eng0, cache0, plan0, inv0 := eng.Stats(), sess.CacheStats(), sess.PlanStats(), sess.CacheInvalidations()

	// Untraced closed loop.
	var lat, widths, errs []float64
	var retained float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	i := 0
	for ; time.Since(start) < untracedFor || i < w.accuracyOps; i++ {
		q := w.next(i, rng)
		r.attempted++
		t0 := time.Now()
		res, err := sess.Reliability(q.terms, q.options()...)
		d := time.Since(t0)
		if err != nil {
			r.fail("query %v: %v", q.terms, err)
			continue
		}
		lat = append(lat, ms(d))
		w.checkAnswer(r, q, res)
		if i < w.accuracyOps {
			widths = append(widths, ciWidth(res.Reliability, res.Variance, res.Lower, res.Upper))
			if w.exact != nil {
				if e, ok := w.exact(i); ok {
					errs = append(errs, math.Abs(res.Reliability-e))
				}
			}
			if i == w.accuracyOps-1 {
				retained = float64(sess.RetainedBytes()) / 1e6
			}
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if w.finish != nil {
		w.finish(r)
	}
	r.setLatencies(lat, elapsed)
	r.set("ci_width", mean(widths))
	r.set("alloc_mb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(lat)))
	r.set("retained_mb", retained)
	r.set("runtime.gc_cycles_per_query", float64(ms1.NumGC-ms0.NumGC)/float64(len(lat)))
	if w.exact != nil {
		r.set("abs_err", mean(errs))
		// The estimator's variance is an upper bound, so the mean error
		// stays well inside the mean 3σ half-width.
		r.check(mean(errs) <= mean(widths)/2, "abs_err %.3g exceeds the mean 3σ half-width %.3g",
			mean(errs), mean(widths)/2)
	} else {
		r.set("abs_err", 0)
	}
	if !r.cfg.trace {
		return nil
	}

	// The session layers' counters cover the untraced half.
	eng1, cache1, plan1 := eng.Stats(), sess.CacheStats(), sess.PlanStats()
	r.set("engine.admission_wait_ms", ratio(float64(eng1.WaitedNanos-eng0.WaitedNanos)/1e6, float64(eng1.Waited-eng0.Waited)))
	r.set("engine.rejected", float64(rejected(eng1)-rejected(eng0)))
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	r.set("batch.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("batch.dedup_ratio", dedupRatio(plan1.UniqueSubproblems-plan0.UniqueSubproblems, plan1.TotalSubproblems-plan0.TotalSubproblems))

	// Traced closed loop. Each query runs twice on a session without a
	// result cache — untraced, then with the program's own phase
	// telemetry on — and is then replayed through the layers. The pair
	// gives the tracing overhead on the same work; the untraced call less
	// the replay's layer spans is the time no layer accounts for.
	plain := netrel.NewSession(g)
	plain.SetCacheCapacity(0)
	var overhead []float64
	ls := &layerStats{}
	ctx := context.Background()
	start = time.Now()
	for ; time.Since(start) < r.cfg.seconds-untracedFor; i++ {
		q := w.next(i, rng)
		r.attempted++
		t0 := time.Now()
		res, err := plain.Reliability(q.terms, q.options()...)
		d := time.Since(t0)
		if err != nil {
			r.fail("query %v: %v", q.terms, err)
			continue
		}
		w.checkAnswer(r, q, res)
		t0 = time.Now()
		tres, err := plain.Reliability(q.terms, q.options(netrel.WithTrace())...)
		dt := time.Since(t0)
		if err != nil {
			r.fail("traced query %v: %v", q.terms, err)
			continue
		}
		r.check(sameBits(tres.Reliability, res.Reliability),
			"traced %v: %v, untraced %v", q.terms, tres.Reliability, res.Reliability)
		overhead = append(overhead, ms(dt-d))
		sp, err := replay(ctx, ug, idx, q)
		if err != nil {
			r.fail("replay %v: %v", q.terms, err)
			continue
		}
		r.check(sameBits(sp.estimate, res.Reliability),
			"replay %v: %v, session %v", q.terms, sp.estimate, res.Reliability)
		ls.add(sp)
		ls.unattributed = append(ls.unattributed, ms(d-sp.layerTime()))
		if sp.largest != nil {
			if err := ls.frontierKernel(sp.largest.G, sp.largest.Terminals, sp.ord, q.width); err != nil {
				r.fail("frontier kernel %v: %v", q.terms, err)
			}
		}
	}
	logf("traced: %d queries replayed through the layers", ls.n)
	if ls.n == 0 {
		return errors.New("traced run completed no query")
	}
	// The workload never mutates its graph; what a mutation of it would
	// cost the dynamic-graph layers is measured on single-edge
	// probability updates.
	var deltas []ugraph.Delta
	for len(deltas) < 64 {
		e := rng.IntN(ug.M())
		deltas = append(deltas, ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: e, P: 0.05 + 0.9*rng.Float64()}}})
	}
	if err := ls.replayDeltas(ug, idx, deltas); err != nil {
		r.fail("%v", err)
	}
	r.setLayerMetrics(ls)
	r.set("trace.overhead_ms", quantile(overhead, 0.5))
	r.set("batch.cache_invalidated", float64(sess.CacheInvalidations()-inv0))
	r.set("netreld.overhead_ms", 0)
	r.set("netreld.resp_bytes", 0)
	r.set("error_rate", ratio(float64(r.failed), float64(r.attempted)))
	w.regime(r)
	return nil
}

// checkAnswer applies the output checks every answer must pass.
func (w *inproc) checkAnswer(r *run, q query, res *netrel.Result) {
	r.check(res.Lower <= res.Reliability && res.Reliability <= res.Upper,
		"query %v: %v outside [%v, %v]", q.terms, res.Reliability, res.Lower, res.Upper)
	if w.checkResult != nil {
		w.checkResult(r, q, res)
	}
}

func rejected(s netrel.EngineStats) uint64 {
	return s.RejectedQueueFull + s.RejectedOverCost + s.RejectedOverQuota + s.RejectedDraining
}

// dedupRatio is unique ÷ total subproblems; 1 when no batch shared any.
func dedupRatio(unique, total uint64) float64 {
	if total == 0 {
		return 1
	}
	return float64(unique) / float64(total)
}
