package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"netrel"
	"netrel/internal/ugraph"
)

// serve-mixed drives the netreld binary over loopback HTTP with two
// closed-loop clients sending a seeded mix of single queries over a
// Zipf-skewed hot set, batches sharing interior blocks, what-if queries and
// probability mutations. The graph is a chain of ring-with-chords blocks
// joined by bridges, so every query decomposes into per-block subproblems
// that the result cache and the batch planner can share.

const (
	chainBlocks    = 16
	chainBlockSize = 10
	serveClients   = 2
	serveSamples   = 2000
	serveWidth     = 4
	serveSeed      = 7 // every request's seed, so repeated queries can hit the cache
	hotPairs       = 48
)

// chainGraph builds the serve-mixed graph: 16 blocks of 10 vertices, each
// a ring plus 7 chords (8 in the first two blocks), joined in a chain by
// 15 bridges — 160 vertices and 289 edges.
func chainGraph() (*netrel.Graph, error) {
	rng := rand.New(rand.NewPCG(graphSeed, 0x636861696e))
	g := netrel.NewGraph(chainBlocks * chainBlockSize)
	for b := 0; b < chainBlocks; b++ {
		base := b * chainBlockSize
		for i := 0; i < chainBlockSize; i++ {
			if err := g.AddEdge(base+i, base+(i+1)%chainBlockSize, 0.6+0.35*rng.Float64()); err != nil {
				return nil, err
			}
		}
		chords := 7
		if b < 2 {
			chords = 8
		}
		seen := map[[2]int]bool{}
		for len(seen) < chords {
			i := rng.IntN(chainBlockSize)
			j := (i + 2 + rng.IntN(chainBlockSize-3)) % chainBlockSize
			key := [2]int{min(i, j), max(i, j)}
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := g.AddEdge(base+key[0], base+key[1], 0.3+0.5*rng.Float64()); err != nil {
				return nil, err
			}
		}
		if b > 0 {
			if err := g.AddEdge(base-chainBlockSize+5, base, 0.95); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

type pair [2]int

// queryResult is the part of netreld's query response the benchmark reads.
type queryResult struct {
	Reliability float64 `json:"reliability"`
	Lower       float64 `json:"lower"`
	Upper       float64 `json:"upper"`
	Variance    float64 `json:"variance"`
	DurationMS  float64 `json:"duration_ms"`
	Phases      *struct {
		Spans []struct {
			Phase      string  `json:"phase"`
			DurationMS float64 `json:"duration_ms"`
		} `json:"spans"`
	} `json:"phases"`
}

// server is one running netreld process.
type server struct {
	cmd   *exec.Cmd
	base  string
	debug string
	http  *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches netreld on graphPath and returns once /healthz
// answers and a first query has built the graph's 2ECC index.
func startServer(cfg config, graphPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(cfg.tmp, "netreld.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	s := &server{
		base:  fmt.Sprintf("http://127.0.0.1:%d", port),
		debug: fmt.Sprintf("http://127.0.0.1:%d", dport),
		http: &http.Client{Timeout: 60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}},
	}
	s.cmd = exec.Command(cfg.netreld,
		"-graph", graphPath,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debugaddr", fmt.Sprintf("127.0.0.1:%d", dport),
		"-samples", strconv.Itoa(serveSamples), "-width", strconv.Itoa(serveWidth),
		"-inflight", "1", "-queue", "64", "-cache", "20",
		"-loglevel", "warn", "-slowquery", "0", "-drain", "5s")
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("netreld did not answer /healthz within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var warm struct{ Result queryResult }
	if _, err := s.post("/v1/reliability", queryBody(pair{0, 1}, false), &warm); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up query: %w", err)
	}
	return s, nil
}

// stop terminates the process and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.http.CloseIdleConnections()
}

// do sends one request and decodes a 2xx JSON answer into out, returning
// the response size.
func (s *server) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(b), err
	}
	if resp.StatusCode/100 != 2 {
		return len(b), fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return len(b), fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(b), nil
}

func (s *server) post(path string, body, out any) (int, error) {
	return s.do(http.MethodPost, path, body, out)
}

func queryBody(p pair, trace bool) map[string]any {
	return map[string]any{"terminals": p[:], "samples": serveSamples, "width": serveWidth,
		"seed": serveSeed, "trace": trace}
}

type setProb struct {
	Edge int     `json:"edge"`
	P    float64 `json:"p"`
}

// serveStats is the part of /v1/stats the benchmark reads.
type serveStats struct {
	Engine struct {
		RejectedQueueFull uint64  `json:"rejected_queue_full"`
		RejectedOverCost  uint64  `json:"rejected_over_cost"`
		RejectedOverQuota uint64  `json:"rejected_over_quota"`
		RejectedDraining  uint64  `json:"rejected_draining"`
		AdmissionWaits    uint64  `json:"admission_waits"`
		AdmissionWaitMS   float64 `json:"admission_wait_ms"`
	} `json:"engine"`
	Memory struct {
		RetainedBytes int64 `json:"retained_bytes"`
	} `json:"memory"`
	Graphs map[string]struct {
		CacheInvalidated uint64 `json:"cache_invalidated"`
		Cache            struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
		Planner struct {
			Unique uint64 `json:"unique_subproblems"`
			Total  uint64 `json:"total_subproblems"`
		} `json:"planner"`
	} `json:"graphs"`
}

func (s *server) stats() (*serveStats, error) {
	var st serveStats
	_, err := s.do(http.MethodGet, "/v1/stats", nil, &st)
	return &st, err
}

// memStats reads the process's cumulative allocation and GC counts from
// the runtime.MemStats block of the pprof allocs page.
func (s *server) memStats() (totalAlloc, numGC float64, err error) {
	resp, err := s.http.Get(s.debug + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		for _, f := range []struct {
			prefix string
			dst    *float64
		}{{"# TotalAlloc = ", &totalAlloc}, {"# NumGC = ", &numGC}} {
			if v, ok := strings.CutPrefix(line, f.prefix); ok {
				if *f.dst, err = strconv.ParseFloat(v, 64); err != nil {
					return 0, 0, err
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, errors.New("allocs profile has no runtime.MemStats block")
	}
	return totalAlloc, numGC, nil
}

// opStats is what one client observed in one phase of the run.
type opStats struct {
	attempted int
	failures  []string
	lat       []float64
	respBytes []float64
	overhead  []float64
	unattrib  []float64
	deltas    []ugraph.Delta
	byKind    map[string][]float64 // latencies by operation kind
}

func (o *opStats) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// serveMix is the traffic of one run: a fixed hot set of pairs, and the
// mutations the run has made.
type serveMix struct {
	g    *netrel.Graph
	hot  []pair
	mu   sync.Mutex
	orig map[int]float64 // mutated edge → original probability
}

func blockVertex(rng *rand.Rand, b int) int { return b*chainBlockSize + rng.IntN(chainBlockSize) }

// newServeMix draws the hot set. It is part of the workload, like the
// graph: the seed varies the traffic over it, not the pairs, whose
// placement along the chain sets each pair's cost. A pair's popularity
// rank fixes how many blocks it spans.
func newServeMix(g *netrel.Graph) *serveMix {
	rng := rand.New(rand.NewPCG(graphSeed, 0x686f74))
	m := &serveMix{g: g, orig: map[int]float64{}}
	for j := 0; j < hotPairs; j++ {
		span := 1 + j%10
		a := rng.IntN(chainBlocks - span)
		m.hot = append(m.hot, pair{blockVertex(rng, a), blockVertex(rng, a+span)})
	}
	return m
}

// client runs one closed-loop client until the deadline.
func (m *serveMix) client(s *server, rng *rand.Rand, deadline time.Time, trace bool) *opStats {
	o := &opStats{byKind: map[string][]float64{}}
	zipf := rand.NewZipf(rng, 1.1, 1, hotPairs-1)
	for time.Now().Before(deadline) {
		o.attempted++
		x := rng.Float64()
		var kind string
		var err error
		t0 := time.Now()
		var size int
		var results []queryResult
		switch {
		case x < 0.55:
			kind = "reliability"
			var resp struct{ Result queryResult }
			size, err = s.post("/v1/reliability", queryBody(m.hot[zipf.Uint64()], trace), &resp)
			results = []queryResult{resp.Result}
		case x < 0.70:
			kind = "batch"
			lo := rng.IntN(chainBlocks - 5)
			hi := lo + 5 + rng.IntN(chainBlocks-lo-5)
			var qs []map[string]any
			for i := 0; i < 8; i++ {
				p := pair{blockVertex(rng, lo+rng.IntN(2)), blockVertex(rng, hi-rng.IntN(2))}
				qs = append(qs, map[string]any{"terminals": p[:]})
			}
			var resp struct{ Results []queryResult }
			size, err = s.post("/v1/batch", map[string]any{"queries": qs, "samples": serveSamples,
				"width": serveWidth, "seed": serveSeed, "trace": trace}, &resp)
			results = resp.Results
			if err == nil && len(results) != len(qs) {
				err = fmt.Errorf("batch of %d answered %d results", len(qs), len(results))
			}
		case x < 0.85:
			kind = "whatif"
			body := queryBody(m.hot[zipf.Uint64()], trace)
			body["delta"] = map[string]any{"set_prob": []setProb{{rng.IntN(m.g.M()), 0.3 + 0.69*rng.Float64()}}}
			var resp struct{ Result queryResult }
			size, err = s.post("/v1/whatif", body, &resp)
			results = []queryResult{resp.Result}
		default:
			kind = "mutate"
			up := setProb{rng.IntN(m.g.M()), 0.3 + 0.69*rng.Float64()}
			m.mu.Lock()
			if _, ok := m.orig[up.Edge]; !ok {
				m.orig[up.Edge] = m.g.Edge(up.Edge).P
			}
			m.mu.Unlock()
			size, err = s.do(http.MethodPatch, "/v1/graphs/default/edges",
				map[string]any{"set_prob": []setProb{up}}, nil)
			if err == nil {
				o.deltas = append(o.deltas, ugraph.Delta{SetProb: []ugraph.ProbUpdate{{Edge: up.Edge, P: up.P}}})
			}
		}
		d := ms(time.Since(t0))
		if err != nil {
			o.fail("%s: %v", kind, err)
			continue
		}
		o.byKind[kind] = append(o.byKind[kind], d)
		o.lat = append(o.lat, d)
		o.respBytes = append(o.respBytes, float64(size))
		for _, res := range results {
			if !(res.Lower <= res.Reliability && res.Reliability <= res.Upper) {
				o.fail("%s: %v outside [%v, %v]", kind, res.Reliability, res.Lower, res.Upper)
			}
		}
		if kind == "reliability" || kind == "whatif" {
			res := results[0]
			o.overhead = append(o.overhead, d-res.DurationMS)
			// duration_ms runs from planning to the combined answer,
			// which the plan, construct, sample and combine phases of a
			// base-graph query tile; admission and the index lookup come
			// before it. A what-if's phases can nest.
			if trace && kind == "reliability" && res.Phases != nil {
				spans := 0.0
				for _, sp := range res.Phases.Spans {
					switch sp.Phase {
					case "plan", "construct", "sample", "combine":
						spans += sp.DurationMS
					}
				}
				o.unattrib = append(o.unattrib, res.DurationMS-spans)
			}
		}
	}
	return o
}

// phase runs the clients concurrently for d and merges what they saw.
func (m *serveMix) phase(r *run, s *server, seed uint64, d time.Duration, trace bool) *opStats {
	deadline := time.Now().Add(d)
	outs := make([]*opStats, serveClients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = m.client(s, rand.New(rand.NewPCG(seed, uint64(c))), deadline, trace)
		}(c)
	}
	wg.Wait()
	all := &opStats{byKind: map[string][]float64{}}
	for _, o := range outs {
		r.attempted += o.attempted
		for _, f := range o.failures {
			r.fail("%s", f)
		}
		all.lat = append(all.lat, o.lat...)
		all.respBytes = append(all.respBytes, o.respBytes...)
		all.overhead = append(all.overhead, o.overhead...)
		all.unattrib = append(all.unattrib, o.unattrib...)
		all.deltas = append(all.deltas, o.deltas...)
		for k, v := range o.byKind {
			all.byKind[k] = append(all.byKind[k], v...)
		}
	}
	for _, k := range []string{"reliability", "batch", "whatif", "mutate"} {
		logf("%-12s %6d ops, p50 %.3f ms, p90 %.3f ms", k, len(all.byKind[k]),
			quantile(all.byKind[k], 0.5), quantile(all.byKind[k], 0.9))
	}
	return all
}

// probe answers the probe pair over HTTP.
func probe(s *server, p pair) (float64, error) {
	var resp struct{ Result queryResult }
	_, err := s.post("/v1/reliability", queryBody(p, false), &resp)
	return resp.Result.Reliability, err
}

func runServeMixed(r *run) error {
	// The clients only encode and decode JSON; one processor keeps them
	// from competing with netreld's pool for the machine's cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := chainGraph()
	if err != nil {
		return err
	}
	graphPath := filepath.Join(r.cfg.tmp, "chain.tsv")
	f, err := os.Create(graphPath)
	if err != nil {
		return err
	}
	if err := g.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("chain graph: %d vertices, %d edges", g.N(), g.M())

	var srv *server
	const setups = 9
	n := 0
	setup, err := medianSetup(setups, func() error {
		var err error
		if srv, err = startServer(r.cfg, graphPath); err != nil {
			return err
		}
		if n++; n < setups {
			srv.stop()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	r.set("setup_s", setup)

	ug, err := internalGraph(g)
	if err != nil {
		return err
	}
	buildMS, idx := indexBuildMS(ug, 15)
	r.set("preprocess.index_build_ms", buildMS)

	// Before timing: exact references for the hot set, and the probe pair
	// (one end of the chain to the other) answered in-process.
	mix := newServeMix(g)
	accuracy := mix.hot
	exact := make([]float64, len(accuracy))
	for i, p := range accuracy {
		e, err := netrel.Exact(g, p[:], netrel.WithMaxWidth(1<<16))
		if err != nil {
			return fmt.Errorf("exact reference %v: %w", p, err)
		}
		exact[i] = e.Reliability
	}
	probePair := pair{0, g.N() - 1}
	q := query{terms: probePair[:], samples: serveSamples, width: serveWidth, seed: serveSeed}
	local, err := netrel.NewSession(g).Reliability(q.terms, q.options()...)
	if err != nil {
		return fmt.Errorf("in-process probe: %w", err)
	}
	before, err := probe(srv, probePair)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	r.attempted++
	r.check(sameBits(before, local.Reliability), "probe over HTTP %v, in-process %v", before, local.Reliability)

	st0, err := srv.stats()
	if err != nil {
		return err
	}
	alloc0, gc0, err := srv.memStats()
	if err != nil {
		return err
	}
	untracedFor := r.cfg.seconds
	if r.cfg.trace {
		untracedFor /= 2
	}
	start := time.Now()
	ops := mix.phase(r, srv, r.cfg.seed, untracedFor, false)
	elapsed := time.Since(start)
	alloc1, gc1, err := srv.memStats()
	if err != nil {
		return err
	}
	st1, err := srv.stats()
	if err != nil {
		return err
	}
	r.setLatencies(ops.lat, elapsed)
	nops := float64(len(ops.lat))
	r.set("alloc_mb_per_query", (alloc1-alloc0)/1e6/nops)
	r.set("runtime.gc_cycles_per_query", (gc1-gc0)/nops)
	r.set("retained_mb", float64(st1.Memory.RetainedBytes)/1e6)
	r.set("netreld.overhead_ms", quantile(ops.overhead, 0.5))
	r.set("netreld.resp_bytes", mean(ops.respBytes))

	var traced *opStats
	if r.cfg.trace {
		traced = mix.phase(r, srv, r.cfg.seed^0x7472616365, r.cfg.seconds-untracedFor, true)
		if st1, err = srv.stats(); err != nil {
			return err
		}
	}

	// Revert every mutation; the probe must then answer as before the run.
	var revert []setProb
	for e, p := range mix.orig {
		revert = append(revert, setProb{e, p})
	}
	if len(revert) > 0 {
		r.attempted++
		if _, err := srv.do(http.MethodPatch, "/v1/graphs/default/edges", map[string]any{"set_prob": revert}, nil); err != nil {
			r.fail("revert: %v", err)
		}
	}
	after, err := probe(srv, probePair)
	r.attempted++
	if err != nil {
		r.fail("probe after revert: %v", err)
	} else {
		r.check(sameBits(after, before), "probe after revert %v, before the run %v", after, before)
	}

	// Accuracy on the reverted graph.
	var widths, errs []float64
	answers := make([]float64, len(accuracy))
	for i, p := range accuracy {
		var resp struct{ Result queryResult }
		r.attempted++
		if _, err := srv.post("/v1/reliability", queryBody(p, false), &resp); err != nil {
			r.fail("accuracy query %v: %v", p, err)
			continue
		}
		res := resp.Result
		answers[i] = res.Reliability
		widths = append(widths, ciWidth(res.Reliability, res.Variance, res.Lower, res.Upper))
		errs = append(errs, math.Abs(res.Reliability-exact[i]))
	}
	r.set("ci_width", mean(widths))
	r.set("abs_err", mean(errs))
	r.check(mean(errs) <= mean(widths)/2, "abs_err %.3g exceeds the mean 3σ half-width %.3g",
		mean(errs), mean(widths)/2)
	if !r.cfg.trace {
		return nil
	}

	// Server-side layers from /v1/stats deltas and response phases.
	r.set("engine.admission_wait_ms", ratio(st1.Engine.AdmissionWaitMS-st0.Engine.AdmissionWaitMS,
		float64(st1.Engine.AdmissionWaits-st0.Engine.AdmissionWaits)))
	rej := func(s *serveStats) uint64 {
		e := s.Engine
		return e.RejectedQueueFull + e.RejectedOverCost + e.RejectedOverQuota + e.RejectedDraining
	}
	r.set("engine.rejected", float64(rej(st1)-rej(st0)))
	g0, g1 := st0.Graphs["default"], st1.Graphs["default"]
	hits, misses := float64(g1.Cache.Hits-g0.Cache.Hits), float64(g1.Cache.Misses-g0.Cache.Misses)
	r.set("batch.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("batch.dedup_ratio", dedupRatio(g1.Planner.Unique-g0.Planner.Unique, g1.Planner.Total-g0.Planner.Total))
	r.set("batch.cache_invalidated", float64(g1.CacheInvalidated-g0.CacheInvalidated))
	r.set("trace.overhead_ms", quantile(traced.lat, 0.5)-quantile(ops.lat, 0.5))

	// Layers replayed in-process: the accuracy pairs, which
	// must reproduce the server's answers, and the run's mutations in
	// order through ugraph.ApplyDelta and preprocess.Index.Update.
	ls := &layerStats{}
	ctx := context.Background()
	for i, p := range accuracy {
		q := query{terms: p[:], samples: serveSamples, width: serveWidth, seed: serveSeed}
		sp, err := replay(ctx, ug, idx, q)
		if err != nil {
			r.fail("replay %v: %v", p, err)
			continue
		}
		r.check(sameBits(sp.estimate, answers[i]), "replay %v: %v, server %v", p, sp.estimate, answers[i])
		ls.add(sp)
		if sp.largest != nil {
			if err := ls.frontierKernel(sp.largest.G, sp.largest.Terminals, sp.ord, serveWidth); err != nil {
				r.fail("frontier kernel %v: %v", p, err)
			}
		}
	}
	ls.unattributed = append(ops.unattrib, traced.unattrib...)
	if err := ls.replayDeltas(ug, idx, append(ops.deltas, traced.deltas...)); err != nil {
		r.fail("%v", err)
	}
	r.setLayerMetrics(ls)
	r.set("error_rate", ratio(float64(r.failed), float64(r.attempted)))
	r.regimeServe()
	return nil
}

// regimeServe checks that serve-mixed keeps the result cache in play.
func (r *run) regimeServe() {
	h := r.values["batch.cache_hit_ratio"]
	r.check(h >= 0.3 && h <= 0.8, "regime: serve-mixed batch.cache_hit_ratio %.3f outside [0.3, 0.8]", h)
}
