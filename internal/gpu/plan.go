package gpu

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/profiles"
	"pjds/internal/telemetry"
)

// defaultWorkers holds the package-wide worker-count default applied
// when RunOptions.Workers is 0. A stored value ≤ 0 selects
// runtime.GOMAXPROCS(0). The CLIs set it from their -workers flag so
// the experiment drivers need no per-call plumbing.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the package default for RunOptions.Workers=0
// callers: n ≤ 0 restores the GOMAXPROCS default, 1 forces sequential
// execution everywhere, n > 1 enables n-way warp parallelism.
func SetDefaultWorkers(n int) { defaultWorkers.Store(int32(n)) }

// DefaultWorkers returns the effective package default worker count.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// planSource describes one storage format to the shared plan compiler
// and replay loop. The kernels differ only in these fields; everything
// else — coalescing analysis, L2 simulation, divergence accounting and
// the worker pool — is shared.
type planSource[T matrix.Float] struct {
	kernel           string
	rows, cols, nPad int
	nnz              int64
	// metaSegs is the number of coalesced metadata segments (row
	// lengths, slice offsets) every warp loads: 0 for plain ELLPACK,
	// 1 for ELLPACK-R and pJDS, 2 for sliced ELLPACK.
	metaSegs int64
	// steps[i] is the number of SIMT steps lane i executes (its true
	// row length, or the global maximum for plain ELLPACK, which
	// computes on padding); access locates lane i's step-j element and
	// returns its storage offset and column index. The compiler alone
	// uses them.
	steps  []int32
	access func(i, j int) (at int64, c int32)
	// mulRows is the layout's numeric body over lanes [lo, hi): lo is
	// warp-aligned, hi is warp-aligned or nPad. It must write only the
	// result rows those warps own (the parallel-replay contract) and
	// sum each row in stored column order (the bit-identity contract).
	mulRows func(y, x []T, lo, hi int, accumulate bool)

	// The optional hooks below cover element-parallel kernels (CMRS)
	// whose warps do not map one lane to one row; nil selects the
	// row-parallel behaviour.
	//
	// lhsRows reports the result rows warp [wbase, wbase+lanes) writes;
	// nil means rows wbase..wbase+lanes clipped to rows.
	lhsRows func(wbase, lanes int) (lo, hi int)
	// metaBytes reports the warp's metadata traffic; nil charges the
	// flat metaSegs coalesced segments.
	metaBytes func(wbase, lanes int) int64
	// geometry labels a parameterized chunked format's layout-quality
	// gauges (publishFormatGeometry over stored slots); nil publishes
	// none.
	stored   int64
	geometry []telemetry.Label
}

// Plan is the compiled execution schedule of one (matrix, format,
// device-geometry) pair. Every transaction-level counter depends only
// on matrix structure and device geometry, so the compiler folds them
// into plan-level totals — including the RHS L2 misses, which it
// resolves by replaying the gather stream through the cache model in
// sequential warp order. A Run* call replays the plan: the layout's
// row body plus a copy of the totals, never the (order-dependent)
// cache simulator, which is what makes parallel execution bit-exact.
// Plans are immutable after compilation and safe for concurrent
// replay.
type Plan[T matrix.Float] struct {
	src      planSource[T]
	warpSize int
	// stats holds the raw counters of one non-accumulating run; its
	// BytesLHS is the store traffic, which accumulation doubles.
	stats KernelStats
	// labels is the prebuilt pprof label context replay workers adopt
	// at spawn (phase=gpu, kernel=...): built once at compile time so
	// labeling a fresh goroutine costs no allocation at replay time.
	labels context.Context
}

// Kernel returns the kernel name the plan was compiled for.
func (p *Plan[T]) Kernel() string { return p.src.kernel }

// Warps returns the number of warps the plan schedules.
func (p *Plan[T]) Warps() int { return p.stats.Warps }

// compilePlan runs the full transaction-level analysis once: warp
// geometry, val/idx coalescing, the LHS segment count, and the RHS
// gather replayed through the L2 model in sequential warp order.
func compilePlan[T matrix.Float](d *Device, src planSource[T]) *Plan[T] {
	es := core.SizeofElem[T]()
	ws := d.WarpSize
	segShift := log2(d.SegmentBytes)
	segBytes := int64(d.SegmentBytes)
	secShift := log2(d.GatherSectorBytes)
	secBytes := int64(d.GatherSectorBytes)
	l2 := newCache(d.L2, d.GatherSectorBytes)
	var valSegs, idxSegs, rhsSegs, lhsSegs segCounter

	p := &Plan[T]{
		src:      src,
		warpSize: ws,
		labels:   profiles.Ctx(profiles.PhaseGPU, "kernel", src.kernel),
	}
	st := &p.stats
	*st = KernelStats{
		Kernel: src.kernel, Rows: src.rows, Nnz: src.nnz,
		UsefulFlops: 2 * src.nnz, ElemBytes: es,
	}
	for wbase := 0; wbase < src.nPad; wbase += ws {
		lanes := min(ws, src.nPad-wbase)
		maxLen := 0
		for lane := 0; lane < lanes; lane++ {
			maxLen = max(maxLen, int(src.steps[wbase+lane]))
		}
		st.Warps++
		if maxLen > 0 {
			st.ActiveWarps++
		}
		st.WarpSteps += int64(maxLen)
		if src.metaBytes != nil {
			st.BytesMeta += src.metaBytes(wbase, lanes)
		} else {
			st.BytesMeta += src.metaSegs * segBytes
		}
		for j := 0; j < maxLen; j++ {
			valSegs.reset()
			idxSegs.reset()
			rhsSegs.reset()
			for lane := 0; lane < lanes; lane++ {
				i := wbase + lane
				if j >= int(src.steps[i]) {
					continue // lane idle: reserved but useless (light boxes of Fig. 2b)
				}
				at, c := src.access(i, j)
				st.ExecutedLaneSteps++
				valSegs.add(addrVal+at*int64(es), segShift)
				idxSegs.add(addrIdx+at*4, segShift)
				rhsSegs.add(addrRHS+int64(c)*int64(es), secShift)
			}
			st.BytesVal += int64(len(valSegs.segs)) * segBytes
			st.BytesIdx += int64(len(idxSegs.segs)) * segBytes
			for _, sec := range rhsSegs.segs {
				st.RHSProbes++
				if !l2.probe(sec << secShift) {
					st.RHSMisses++
					st.BytesRHS += secBytes
				}
			}
		}
		lhsLo, lhsHi := wbase, min(wbase+lanes, src.rows)
		if src.lhsRows != nil {
			lhsLo, lhsHi = src.lhsRows(wbase, lanes)
		}
		st.BytesLHS += lhsBytes(&lhsSegs, lhsLo, lhsHi, es, segShift, segBytes, false)
	}
	return p
}

// run replays the plan: the layout's row body (sequential, or over
// warp-aligned lane ranges on a worker pool), a copy of the compiled
// totals, then the derived timing on the actual device (which may
// differ from the compile device in bandwidth-only fields such as the
// ECC mode).
func (p *Plan[T]) run(d *Device, y, x []T, opt RunOptions) *KernelStats {
	warps := p.stats.Warps
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers <= 1 || warps <= 1 {
		p.src.mulRows(y, x, 0, p.src.nPad, opt.Accumulate)
	} else {
		// Chunked self-scheduling: workers claim fixed-size runs of
		// consecutive warps from an atomic cursor. The assignment of
		// warps to workers is racy, but no output depends on it: warps
		// own disjoint y rows and the counters were folded at compile
		// time.
		workers = min(workers, warps)
		chunk := min(max(warps/(workers*4), 1), 256)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Fresh goroutine: adopt the plan's phase=gpu labels
				// for its whole (short) life. Prebuilt context, so
				// this allocates nothing per replay.
				pprof.SetGoroutineLabels(p.labels)
				for {
					hi := int(cursor.Add(int64(chunk)))
					lo := hi - chunk
					if lo >= warps {
						return
					}
					p.src.mulRows(y, x, lo*p.warpSize, min(hi*p.warpSize, p.src.nPad), opt.Accumulate)
				}
			}()
		}
		wg.Wait()
	}
	st := p.stats
	if opt.Accumulate {
		st.BytesLHS *= 2
	}
	st.finish(d, p.warpSize)
	st.Publish(opt.Metrics, opt.MetricLabels...)
	if p.src.geometry != nil {
		var buf [8]telemetry.Label
		publishFormatGeometry(opt.Metrics, p.src.stored, p.src.nnz,
			append(append(buf[:0], telemetry.L("kernel", st.Kernel), telemetry.L("device", d.Name)), p.src.geometry...)...)
	}
	return &st
}
