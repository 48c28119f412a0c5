package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"pjds/internal/core"
	"pjds/internal/gpu"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
	"pjds/internal/telemetry"
	"pjds/internal/tuner"
)

// kernelKinds are the host kernels of hostkernel.ns_per_nnz.<kind>.<w>,
// w being 1 or nproc; pjds is the permuted-basis kernel the service's
// host tier runs.
var kernelKinds = []string{"naive", "blocked", "sell", "cmrs", "pjds"}

// eq1Bytes is the Eq. 1 minimal double-precision CRS traffic of one
// y = A·x (value + index per non-zero, row pointer and y per row, x
// per column at ideal reuse), the same count hostkernel's meters use.
// It is computed from the matrix shape, not measured.
func eq1Bytes(m *matrix.CSR[float64]) float64 {
	return 12*float64(m.Nnz()) + 24*float64(m.NRows) + 8*float64(m.NCols)
}

// timeCalls runs fn once to warm up, then at least 3 times and until
// minDur has passed, and returns the median call time and the heap
// allocations per call.
func timeCalls(minDur time.Duration, fn func() error) (time.Duration, float64, error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	var ts []float64
	a0 := mallocs()
	start := time.Now()
	for len(ts) < 3 || (time.Since(start) < minDur && len(ts) < 1000) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		ts = append(ts, float64(time.Since(t0)))
	}
	allocs := float64(mallocs()-a0) / float64(len(ts))
	return time.Duration(quantile(ts, 0.5)), allocs, nil
}

// timedOp wraps a solver operator, summing the time spent in Apply and
// recording a hostkernel span around each application.
type timedOp struct {
	solver.Operator
	b      *bench
	req    int64
	parent int
	in     time.Duration
}

func (o *timedOp) Apply(y, x []float64) error {
	sp := o.b.tr.open(0, "hostkernel", "apply", o.req, o.parent)
	t0 := time.Now()
	err := o.Operator.Apply(y, x)
	o.in += time.Since(t0)
	o.b.tr.close(sp)
	return err
}

// cg runs a library CG through timedOp and records solver.cg_iters and
// solver.apply_share; hitting maxIter is an error here.
func (b *bench) cg(op solver.Operator, x, rhs []float64, tol float64, maxIter int) (time.Duration, error) {
	req := b.tr.newReq()
	sp := b.tr.open(0, "solver", "cg", req, -1)
	top := &timedOp{Operator: op, b: b, req: req, parent: sp}
	t0 := time.Now()
	res, err := solver.CG(top, x, rhs, tol, maxIter)
	wall := time.Since(t0)
	b.tr.close(sp)
	if err != nil {
		return 0, err
	}
	b.m.set("solver.cg_iters", float64(res.Iterations), "count")
	b.m.set("solver.apply_share", top.in.Seconds()/wall.Seconds(), "ratio")
	return wall, nil
}

// probeLayers measures each layer by calling its public functions on
// the workload's own matrices: ingest, permuted build, tuning, tuned
// build, every host kernel at 1 and nproc workers, the simulated
// device replay, and one request decomposed into its layers. Spans of
// one matrix share a request ID. replayMs receives the standalone
// replay time per input, for service.overhead_ms.
func (b *bench) probeLayers(ins []*input, replayMs map[string]float64) error {
	minDur := 150 * time.Millisecond
	if b.tiny {
		minDur = 2 * time.Millisecond
	}
	var (
		ingestMs, buildMs, tuneMs, tunedMs []float64
		ingestBytes, ingestSec             float64
		measured, pruned, hits, lookups    int
		kernelSec                          = map[string]float64{}
		kernelNnz                          float64
		worstAllocs, eqBytes               float64
		replaySec, replayNnz, replayAllocs float64
		modelBytes, modelSec               float64
	)
	plans := gpu.NewPlanCache(0)
	reg := telemetry.NewRegistry()
	dev := gpu.TeslaC2070()
	for _, in := range ins {
		req := b.tr.newReq()
		root := b.tr.open(0, "loadgen", "probe "+in.name, req, -1)
		var m *matrix.CSR[float64]
		t0 := time.Now()
		err := b.tr.do(0, "matrix", "ingest", req, root, func() (err error) {
			m, _, err = matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(in.mm), matrix.ConvertOptions{})
			return err
		})
		if err != nil {
			return fmt.Errorf("ingest %s: %w", in.name, err)
		}
		ingestMs = append(ingestMs, msSince(t0))
		ingestBytes += float64(len(in.mm))
		ingestSec += time.Since(t0).Seconds()

		var op *solver.PermutedPJDS
		t0 = time.Now()
		err = b.tr.do(0, "solver", "permuted-build", req, root, func() (err error) {
			op, err = solver.NewPermutedPJDS(m, core.Options{})
			return err
		})
		if err != nil {
			return fmt.Errorf("permuted build %s: %w", in.name, err)
		}
		buildMs = append(buildMs, msSince(t0))

		// A fresh DB per matrix: the first lookup sweeps, the second
		// (a restart against the same DB) must be a hit.
		db := b.freshPath("probe")
		var entry *tuner.Entry
		t0 = time.Now()
		err = b.tr.do(0, "tuner", "tune", req, root, func() (err error) {
			entry, _, err = tuner.TuneOrLookup(m, in.name, db, tuner.Config{Workers: b.workers, Metrics: reg})
			return err
		})
		if err != nil {
			return fmt.Errorf("tune %s: %w", in.name, err)
		}
		tuneMs = append(tuneMs, msSince(t0))
		for _, c := range entry.Cells {
			if c.Pruned {
				pruned++
			} else {
				measured++
			}
		}
		lookups += 2
		if _, hit, err := tuner.TuneOrLookup(m, in.name, db, tuner.Config{Workers: b.workers, Metrics: reg}); err != nil {
			return err
		} else if hit {
			hits++
		}

		var tuned hostkernel.Kernel
		t0 = time.Now()
		err = b.tr.do(0, "formats", "tuned-build "+entry.Winner.Label(), req, root, func() (err error) {
			tuned, err = tuner.KernelFor(entry.Winner, m, b.workers, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("tuned build %s: %w", in.name, err)
		}
		tuned.Close()
		tunedMs = append(tunedMs, msSince(t0))

		// Host kernels, each checked against the naive digest of its
		// basis.
		naiveD, err := in.naiveRef(0)
		if err != nil {
			return err
		}
		permD, err := in.permRef(0)
		if err != nil {
			return err
		}
		n := m.NRows
		x := service.SeedVector(n, 0)
		xp := op.Enter(make([]float64, n), x)
		y := make([]float64, n)
		for _, kind := range kernelKinds {
			for _, width := range []string{"1", "nproc"} {
				name, w := kind+"."+width, 1
				if width == "nproc" {
					w = b.workers
				}
				var k hostkernel.Kernel
				if kind == "pjds" {
					k = hostkernel.NewPJDS(op.P, hostkernel.Options{Workers: w})
				} else if k, err = hostkernel.New(hostkernel.Kind(kind), m, hostkernel.Options{Workers: w}); err != nil {
					return err
				}
				in1, want := x, naiveD
				if kind == "pjds" {
					in1, want = xp, permD
				}
				var per time.Duration
				var allocs float64
				err := b.tr.do(0, "hostkernel", "mulvec "+name, req, root, func() (err error) {
					per, allocs, err = timeCalls(minDur, func() error { return k.MulVec(y, in1) })
					return err
				})
				k.Close()
				if err != nil {
					return fmt.Errorf("%s on %s: %w", name, in.name, err)
				}
				got := y
				if kind == "pjds" {
					got = op.Leave(make([]float64, n), y)
				}
				b.tl.check(in.name+" hostkernel "+name, service.DigestVector(got), want)
				kernelSec[name] += per.Seconds()
				worstAllocs = max(worstAllocs, allocs)
			}
		}
		kernelNnz += float64(m.Nnz())
		eqBytes += eq1Bytes(m)

		// Simulated device: the first run compiles the plan; replays
		// reuse it, as the service's device tier does.
		yp := make([]float64, n)
		var st *gpu.KernelStats
		run := func() (err error) {
			st, err = gpu.RunPJDS(dev, op.P, yp, xp, gpu.RunOptions{Workers: 1, Plans: plans, Metrics: reg})
			return err
		}
		var per time.Duration
		var allocs float64
		err = b.tr.do(0, "gpu", "replay", req, root, func() (err error) {
			per, allocs, err = timeCalls(minDur, run)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay %s: %w", in.name, err)
		}
		b.tl.check(in.name+" gpu replay", service.DigestVector(op.Leave(make([]float64, n), yp)), permD)
		replaySec += per.Seconds()
		replayNnz += float64(m.Nnz())
		replayAllocs = max(replayAllocs, allocs)
		modelBytes += float64(st.BytesTotal)
		modelSec += st.KernelSeconds
		replayMs[in.name] = float64(per) / 1e6
		b.tr.close(root)

		// One spMVM request decomposed into the layers the service
		// runs it through: permute in, device replay, permute out,
		// digest.
		dreq := b.tr.newReq()
		droot := b.tr.open(0, "loadgen", "spmv decomposed "+in.name, dreq, -1)
		var xq, yq []float64
		_ = b.tr.do(0, "solver", "enter", dreq, droot, func() error { xq = op.Enter(make([]float64, n), x); return nil })
		yq = make([]float64, n)
		if err := b.tr.do(0, "gpu", "replay", dreq, droot, func() error {
			_, err := gpu.RunPJDS(dev, op.P, yq, xq, gpu.RunOptions{Workers: 1, Plans: plans, Metrics: reg})
			return err
		}); err != nil {
			return err
		}
		var out []float64
		_ = b.tr.do(0, "solver", "leave", dreq, droot, func() error { out = op.Leave(make([]float64, n), yq); return nil })
		var d string
		_ = b.tr.do(0, "service", "digest", dreq, droot, func() error { d = service.DigestVector(out); return nil })
		b.tr.close(droot)
		b.tl.check(in.name+" decomposed spmv", d, permD)

		op.Close()
	}

	b.m.set("matrix.ingest_ms", quantile(ingestMs, 0.5), "ms")
	b.m.set("matrix.ingest_mb_s", ingestBytes/1e6/ingestSec, "MB/s")
	b.m.set("solver.permuted_build_ms", quantile(buildMs, 0.5), "ms")
	b.m.set("tuner.tune_ms", quantile(tuneMs, 0.5), "ms")
	b.m.set("tuner.cells_measured", float64(measured), "count")
	b.m.set("tuner.cells_pruned", float64(pruned), "count")
	b.m.set("tuner.cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	b.m.set("formats.tuned_build_ms", quantile(tunedMs, 0.5), "ms")
	for name, sec := range kernelSec {
		b.m.set("hostkernel.ns_per_nnz."+name, sec*1e9/kernelNnz, "ns")
	}
	b.m.set("hostkernel.allocs_per_op", worstAllocs, "count")
	b.m.set("hostkernel.bytes_per_nnz", eqBytes/kernelNnz, "B")
	b.m.set("gpu.replay_ns_per_nnz", replaySec*1e9/replayNnz, "ns")
	b.m.set("gpu.allocs_per_replay", replayAllocs, "count")
	ps := plans.Stats()
	b.m.set("gpu.plan_compile_ms", ps.CompileSeconds*1e3/float64(ps.Compiles), "ms")
	b.m.set("gpu.plan_cache_hit_ratio", float64(ps.Hits)/float64(ps.Hits+ps.Misses), "ratio")
	b.m.set("gpu.model_gbps", modelBytes/modelSec/1e9, "GB/s")
	return b.admission()
}

// admission measures the service's admission fast path standalone.
func (b *bench) admission() error {
	n := 200000
	if b.tiny {
		n = 2000
	}
	ab := service.NewAdmitBench()
	if !ab.Cycle() {
		return errors.New("admission benchmark shed a request")
	}
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if !ab.Cycle() {
			return errors.New("admission benchmark shed a request")
		}
	}
	b.m.set("service.admit_ns", float64(time.Since(t0).Nanoseconds())/float64(n), "ns")
	b.m.set("service.admit_allocs", float64(mallocs()-a0)/float64(n), "count")
	return nil
}
