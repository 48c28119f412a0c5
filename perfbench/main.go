// Command perfbench is the repository benchmark for the spMVM stack.
// One invocation runs one named workload from a seed and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with --trace 1 they are the per-layer ones, taken
// from a traced run that also writes a Chrome trace. Every answer the
// program returns is checked bit for bit against a host reference; a
// mismatch, an error or a refused request makes the run incorrect and
// the exit status non-zero.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// METRICS.md describes every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// specFile is the benchmark definition, read from the working
// directory (the repository root). It is the single source of metric
// names and units: a metric the workload emits must be listed there
// with the same unit, and every listed metric must be emitted.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's measurements by name. Only the goroutine
// running the workload writes to it.
type metricSet map[string]value

func (m metricSet) set(name string, v float64, unit string) { m[name] = value{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// tally counts operations across every phase of a run. An operation
// is one request, upload, library call checked against a reference,
// or solve; it fails when it errors, is refused, or returns wrong bits.
type tally struct {
	attempted  atomic.Int64
	failed     atomic.Int64
	mismatches atomic.Int64
	log        io.Writer
	logged     atomic.Int64
}

// check records one operation whose answer is compared bit for bit.
func (t *tally) check(what, got, want string) bool {
	if got == want {
		t.attempted.Add(1)
		return true
	}
	t.wrong(what, fmt.Sprintf("digest %s, want %s", got, want))
	return false
}

// correct reports whether every operation succeeded with the right
// answer.
func (t *tally) correct() bool { return t.failed.Load() == 0 }

// wrong records one operation that returned a wrong answer.
func (t *tally) wrong(what, detail string) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mismatches.Add(1)
	if t.logged.Add(1) <= 5 {
		fmt.Fprintf(t.log, "MISMATCH %s: %s\n", what, detail)
	}
}

// fail records one operation that errored or was refused.
func (t *tally) fail(what string, err error) {
	t.attempted.Add(1)
	t.failed.Add(1)
	if t.logged.Add(1) <= 5 {
		fmt.Fprintf(t.log, "FAILED %s: %v\n", what, err)
	}
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	tiny     bool
	workers  int    // nproc: client connections, kernel and triad workers
	tmp      string // scratch directory inside the checkout
	files    int    // files made in tmp
	out      io.Writer
	m        metricSet
	tl       *tally
	tr       *tracer // nil in untraced runs
	tri      *triad
	triadGBs []float64
	heap     *heapPeak

	inputs map[string][]*input // made once, shared by both passes of a traced run
	probe  []*input            // the inputs probeLayers measures
	reqIn  string              // matrix of reqMs
	reqMs  float64             // closed-loop spMVM p50 on reqIn
}

// phase returns a share of the run's measured seconds.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// workloads are the runnable workloads, the ones BENCHMARK.json lists.
var workloads = map[string]func(*bench) error{
	"serve-mixed": serveMixed,
	"solve-large": solveLarge,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve-mixed or solve-large")
	seed := fs.Uint64("seed", 1, "seed the inputs and request schedule are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds of the run")
	traceMode := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	tiny := fs.Bool("tiny", false, "tiny inputs, for the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {serve-mixed,solve-large}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v (run from the repository root)\n", err)
		return 1
	}
	want := spec.EndToEnd
	if *traceMode == 1 {
		want = spec.PerLayer
	}

	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, tiny: *tiny,
		workers: runtime.NumCPU(), tmp: tmp,
		out: stdout, m: metricSet{}, tl: &tally{log: stderr},
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d workers=%d\n",
		b.workload, b.seed, b.seconds, *traceMode, b.workers)
	start := time.Now()
	if *traceMode == 1 {
		err = runTraced(b, wl)
	} else {
		err = wl(b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "wall %.1f s\n", time.Since(start).Seconds())
	b.m.set("loadgen.fail_ratio", float64(b.tl.failed.Load())/float64(max(1, b.tl.attempted.Load())), "ratio")

	res := result{
		Correct:   b.tl.correct(),
		Attempted: b.tl.attempted.Load(),
		Failed:    b.tl.failed.Load(),
		Metrics:   map[string]value{},
	}
	if err := selectMetrics(b.m, want, res.Metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	printTable(stdout, res.Metrics, want)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct || res.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed, %d of them with a wrong answer\n",
			b.workload, res.Failed, res.Attempted, b.tl.mismatches.Load())
		return 1
	}
	return 0
}

// selectMetrics copies the wanted metrics into dst, checking that each
// was measured, with the unit the spec gives. A metric with no samples
// (a quantile of nothing, a ratio over nothing) reads NaN and is an
// error, never a figure.
func selectMetrics(src metricSet, want []metricSpec, dst map[string]value) error {
	var errs []error
	for _, w := range want {
		v, ok := src[w.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", w.Name))
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			errs = append(errs, fmt.Errorf("metric %s has no samples (%g)", w.Name, v.Value))
		case v.Unit != w.Unit:
			errs = append(errs, fmt.Errorf("metric %s measured in %s, spec says %s", w.Name, v.Unit, w.Unit))
		default:
			dst[w.Name] = v
		}
	}
	return errors.Join(errs...)
}

func printTable(w io.Writer, ms map[string]value, order []metricSpec) {
	names := make([]string, 0, len(order))
	for _, o := range order {
		names = append(names, o.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		v := ms[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
