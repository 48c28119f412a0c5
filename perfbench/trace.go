package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pjds/internal/telemetry"
	"pjds/internal/trace"
)

// lanes are the trace lanes, one per module the benchmark calls into,
// plus the load generator. Their self-time shares are per-layer
// metrics.
var lanes = []string{"loadgen", "service", "gpu", "hostkernel", "matrix", "formats", "tuner", "solver"}

// tracer records spans around the benchmark's calls into each layer.
// All methods are no-ops on a nil tracer, which is what untraced runs
// use, so the untraced hot path pays one nil check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one layer call. Spans of one request share req; parent is
// the index of the enclosing span (-1 for a root).
type span struct {
	proc       int
	lane, name string
	req        int64
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request ID.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// open starts a span now and returns its handle.
func (t *tracer) open(proc int, lane, name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	return t.openAt(proc, lane, name, req, parent, time.Now())
}

// openAt starts a span at a given time (an open-loop request starts
// when it was due, not when it was sent).
func (t *tracer) openAt(proc int, lane, name string, req int64, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{proc: proc, lane: lane, name: name, req: req, parent: parent, start: at.Sub(t.t0)})
	return len(t.spans) - 1
}

// close ends span i now.
func (t *tracer) close(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(proc int, lane, name string, req int64, parent int, fn func() error) error {
	i := t.open(proc, lane, name, req, parent)
	err := fn()
	t.close(i)
	return err
}

// selfTimes returns, per lane, the summed self time of its spans: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int, len(t.spans))
	var rootTotal time.Duration
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		} else {
			rootTotal += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.lane] += s.end - s.start - covered(s, t.spans, children[i])
	}
	return self, rootTotal
}

// covered is the length of the union of the child intervals, clipped
// to the parent.
func covered(p span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write renders the spans as a Chrome trace through
// telemetry.WriteTrace (one process per load worker, one thread per
// lane) and checks that it reads back the way `perfreport -trace-in`
// reads it.
func (t *tracer) write(path string, meta map[string]any) (int, error) {
	t.mu.Lock()
	out := make([]telemetry.Span, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]string{"req": strconv.FormatInt(s.req, 10)}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].lane + "/" + t.spans[s.parent].name
		}
		out = append(out, telemetry.Span{
			Proc: s.proc, Lane: s.lane, Cat: s.lane, Name: s.name,
			Start: s.start.Seconds(), End: s.end.Seconds(), Args: args,
		})
	}
	t.mu.Unlock()
	var buf bytes.Buffer
	procs := map[int]string{0: "perfbench"}
	for _, s := range out {
		if s.Proc > 0 {
			procs[s.Proc] = fmt.Sprintf("load worker %d", s.Proc)
		}
	}
	if err := telemetry.WriteTrace(&buf, out, telemetry.TraceMeta{Processes: procs, Other: meta}); err != nil {
		return 0, err
	}
	back, err := trace.ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, fmt.Errorf("trace does not read back: %w", err)
	}
	if len(back) != len(out) {
		return 0, fmt.Errorf("trace reads back %d of %d spans", len(back), len(out))
	}
	return len(out), os.WriteFile(path, buf.Bytes(), 0o644)
}

// tracePath is where --trace 1 writes the Chrome trace.
func tracePath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", workload, seed))
}

// runTraced is --trace 1: an untraced and a traced pass of the
// workload over half the seconds each, then the layer probes on the
// workload's inputs. It reports the per-layer metrics, the self-time
// share of each lane and the tracing overhead, and writes the trace.
func runTraced(b *bench, wl func(*bench) error) error {
	b.seconds /= 2
	if err := wl(b); err != nil {
		return err
	}
	untraced := b.m
	b.m = metricSet{}
	b.tr = newTracer()
	if err := wl(b); err != nil {
		return err
	}
	b.m.set("trace.overhead_ratio", b.m["spmv_p50_ms"].Value/untraced["spmv_p50_ms"].Value, "ratio")
	// Figures too noisy to gate are reported from the untraced pass.
	for _, name := range []string{"spmv_p99_ms", "solve_p50_ms", "solve_p90_ms", "solve_s", "host_ns_per_nnz"} {
		b.m[name] = untraced[name]
	}
	replay := map[string]float64{}
	if err := b.probeLayers(b.probe, replay); err != nil {
		return err
	}
	b.m.set("service.overhead_ms", b.reqMs-replay[b.reqIn], "ms")

	self, total := b.tr.selfTimes()
	for _, l := range lanes {
		b.m.set("trace.self_share."+l, self[l].Seconds()/total.Seconds(), "ratio")
		fmt.Fprintf(b.out, "self time %-10s %9.1f ms\n", l, float64(self[l])/1e6)
	}
	path := tracePath(b.workload, b.seed)
	n, err := b.tr.write(path, map[string]any{"workload": b.workload, "seed": b.seed})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(b.out, "trace: %d spans in %s (read it with: perfreport -trace-in %s)\n", n, path, path)
	return nil
}
