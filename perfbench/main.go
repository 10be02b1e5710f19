// Command perfbench is the repository's benchmark. It runs one named
// workload against the public surfaces — the netrel library in-process, or
// the netreld daemon over loopback HTTP — for a fixed number of seconds,
// checks every answer, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	perfbench -netreld <binary> -tmp <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// spends half the run untraced and half traced — timing the calls it
// makes into each layer's public functions — and prints the per-layer
// metrics, including the tracing overhead between the two halves.
// perfbench/run.sh builds both binaries and passes the first two flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ci_width", "prob"},
	{"alloc_mb_per_query", "MB"},
	{"retained_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by every traced run.
// A workload that does not exercise a layer reports it as 0.
var perLayer = []metricDef{
	{"netreld.overhead_ms", "ms"},
	{"netreld.resp_bytes", "bytes"},
	{"engine.admission_wait_ms", "ms"},
	{"engine.rejected", "count"},
	{"batch.cache_hit_ratio", "ratio"},
	{"batch.dedup_ratio", "ratio"},
	{"batch.cache_invalidated", "count"},
	{"preprocess.index_build_ms", "ms"},
	{"preprocess.decompose_ms", "ms"},
	{"preprocess.subproblems", "count"},
	{"preprocess.index_update_ms", "ms"},
	{"ugraph.apply_delta_ms", "ms"},
	{"order.ms", "ms"},
	{"frontier.plan_ms", "ms"},
	{"frontier.apply_ns", "ns"},
	{"frontier.key_ns", "ns"},
	{"core.construct_ms", "ms"},
	{"core.construct_share", "ratio"},
	{"core.layers", "count"},
	{"core.peak_width", "count"},
	{"core.nodes_created", "count"},
	{"core.nodes_merged", "count"},
	{"core.nodes_deleted", "count"},
	{"core.flushed", "ratio"},
	{"core.sample_ms", "ms"},
	{"core.draws_per_s", "1/s"},
	{"core.samples_used", "count"},
	{"core.sample_reduction", "ratio"},
	{"core.strata", "count"},
	{"abs_err", "prob"},
	{"error_rate", "ratio"},
	{"netrel.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"runtime.gc_cycles_per_query", "count"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	netreld  string
	tmp      string
}

// run accumulates one workload run's operation counts, check failures and
// metric values.
type run struct {
	cfg       config
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newRun(cfg config) *run { return &run{cfg: cfg, values: map[string]float64{}} }

// fail records a failed operation: an error, a refused request or an
// output check that did not hold.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts a failed check without counting an extra operation: the
// operation it belongs to was already attempted.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// logf prints a human-readable line on standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints every metric of the run's kind by name and unit on
// standard error, then the result object on standard output, and returns
// whether every check held.
func (r *run) report() bool {
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	out := reportJSON{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s was not measured (%v)", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		logf("%-30s %14.6g %s", d.name, v, d.unit)
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0 && r.attempted > 0
	for _, p := range r.problems {
		logf("FAILED: %s", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		logf("perfbench: %v", err)
		return false
	}
	fmt.Println(string(b))
	return out.Correct
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.netreld, "netreld", "", "netreld binary (serve-mixed)")
	flag.StringVar(&cfg.tmp, "tmp", "", "directory for generated inputs and logs")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) || cfg.tmp == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -tmp, --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(cfg)
	if err := w(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.report() {
		os.Exit(1)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"construct-dblp": runConstructDBLP,
	"sample-karate":  runSampleKarate,
	"serve-mixed":    runServeMixed,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setLatencies records the closed-loop latency metrics of the untraced
// operations and states their sample count.
func (r *run) setLatencies(lat []float64, elapsed time.Duration) {
	r.set("qps", float64(len(lat))/elapsed.Seconds())
	r.set("latency_p50_ms", quantile(lat, 0.50))
	r.set("latency_p90_ms", quantile(lat, 0.90))
	r.set("latency_p99_ms", quantile(lat, 0.99))
	logf("latency: %d operations in %.2fs (%d beyond p90, %d beyond p99)",
		len(lat), elapsed.Seconds(), len(lat)/10, len(lat)/100)
}

// ciWidth is the width of the 3σ interval around est clipped to the proven
// bounds [lo, hi].
func ciWidth(est, variance, lo, hi float64) float64 {
	sd := 3 * math.Sqrt(variance)
	return math.Min(est+sd, hi) - math.Max(est-sd, lo)
}

// medianSetup runs setup n times and returns the median duration in
// seconds. Each set-up starts from a collected heap, so garbage left by
// the previous one is not charged to it.
func medianSetup(n int, setup func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return quantile(xs, 0.5), nil
}
