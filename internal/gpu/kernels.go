package gpu

import (
	"fmt"

	"pjds/internal/core"
	"pjds/internal/formats"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// RunOptions modify a kernel execution.
type RunOptions struct {
	// Accumulate computes y += A·x instead of y = A·x. The result
	// vector is then both read and written, which adds the 8/N_nzr
	// bytes/flop the paper attributes to the split local/non-local
	// spMVM of §III-A.
	Accumulate bool
	// Workers is the number of host goroutines executing warps
	// concurrently; 0 selects the package default (SetDefaultWorkers,
	// falling back to GOMAXPROCS), 1 forces sequential execution.
	// Results, stats and telemetry are bit-identical for any value:
	// warps write disjoint result rows and every simulated counter is
	// precompiled into the plan.
	Workers int
	// Plans selects the plan cache to memoize compiled kernel plans
	// in; nil uses the package-default cache (Plans()).
	Plans *PlanCache
	// Metrics receives the kernel's statistics after the run; nil
	// publishes to telemetry.Default(). MetricLabels are appended to
	// the kernel/device labels — the distributed runs add rank and
	// phase so concurrent ranks never write the same gauge series.
	Metrics      *telemetry.Registry
	MetricLabels []telemetry.Label
	// Faults (nil = healthy device) is consulted once per kernel
	// launch; a firing injector aborts the launch with an ECCError
	// before any work or timing is modelled.
	Faults ECCInjector
}

// RunELLPACK executes the plain ELLPACK spMVM (Fig. 2a): every thread
// iterates to the global maximum row length, computing on padding.
// y = A·x is computed functionally; the returned stats carry the
// transaction-level timing model.
func RunELLPACK[T matrix.Float](d *Device, e *formats.ELLPACK[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: ELLPACK run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, "ELLPACK"); err != nil {
		return nil, err
	}
	p := planFor(opt, d, "ELLPACK", e, func() *Plan[T] {
		// Plain ELLPACK has no row-length array on the device: every
		// lane runs to the global maximum, computing on padding.
		steps := make([]int32, e.NPad)
		for i := range steps {
			steps[i] = int32(e.MaxRowLen)
		}
		return compilePlan(d, planSource[T]{
			kernel: "ELLPACK", rows: e.N, cols: e.NCols, nPad: e.NPad,
			nnz: int64(e.NnzV), metaSegs: 0,
			steps: steps,
			access: func(i, j int) (int64, int32) {
				at := j*e.NPad + i
				return int64(at), e.ColIdx[at]
			},
			mulRows: func(y, x []T, lo, hi int, acc bool) { e.MulRows(y, x, lo, min(hi, e.N), acc) },
		})
	})
	return p.run(d, y, x, opt), nil
}

// RunELLPACKR executes the ELLPACK-R spMVM of Listing 1 (Fig. 2b):
// lanes stop at their row's true length, but the warp reserves its MP
// slot until its longest row finishes, and partially-filled memory
// transactions still move full segments.
func RunELLPACKR[T matrix.Float](d *Device, e *formats.ELLPACKR[T], y, x []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(x) != e.NCols || len(y) != e.N {
		return nil, fmt.Errorf("gpu: ELLPACK-R run |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, "ELLPACK-R"); err != nil {
		return nil, err
	}
	p := planFor(opt, d, "ELLPACK-R", e, func() *Plan[T] {
		return compilePlan(d, planSource[T]{
			kernel: "ELLPACK-R", rows: e.N, cols: e.NCols, nPad: e.NPad,
			nnz: int64(e.NnzV), metaSegs: 1, // the rowmax[] load: one coalesced segment per warp
			steps: e.RowLen,
			access: func(i, j int) (int64, int32) {
				at := j*e.NPad + i
				return int64(at), e.ColIdx[at]
			},
			mulRows: func(y, x []T, lo, hi int, acc bool) { e.MulRows(y, x, lo, min(hi, e.N), acc) },
		})
	})
	return p.run(d, y, x, opt), nil
}

// RunPJDS executes the pJDS spMVM of Listing 2 (Fig. 2c) in the
// permuted basis: yp = Ap·xp with yp in sorted-row order. Because rows
// are sorted, lanes of a warp have (nearly) equal lengths, so both the
// reserved-but-idle lane steps and the partially-filled transactions
// of ELLPACK-R largely disappear.
func RunPJDS[T matrix.Float](d *Device, p *core.PJDS[T], yp, xp []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(xp) != p.NCols || len(yp) < p.N {
		return nil, fmt.Errorf("gpu: pJDS run |x|=%d |y|=%d on %dx%d: %w", len(xp), len(yp), p.N, p.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, p.Name()); err != nil {
		return nil, err
	}
	pl := planFor(opt, d, p.Name(), p, func() *Plan[T] {
		return compilePlan(d, planSource[T]{
			kernel: p.Name(), rows: p.N, cols: p.NCols, nPad: p.NPad,
			nnz: int64(p.Nnz), metaSegs: 1, // rowmax[] load; col_start[] assumed cached (§II-B)
			steps: p.RowLen,
			access: func(i, j int) (int64, int32) {
				at := int(p.ColStart[j]) + i
				return int64(at), p.ColIdx[at]
			},
			mulRows: func(y, x []T, lo, hi int, acc bool) { p.MulRows(y, x, lo, min(hi, p.N), acc) },
		})
	})
	return pl.run(d, yp, xp, opt), nil
}

// RunSlicedELL executes the sliced-ELLPACK kernel (related work
// [12, 13]) in its stored row order: yp = Ap·xp. One warp covers
// warpSize consecutive rows, which may span several slices when
// C < warpSize; lanes are then grouped per slice but still issue one
// SIMT instruction stream.
func RunSlicedELL[T matrix.Float](d *Device, s *formats.SlicedELL[T], yp, xp []T, opt RunOptions) (*KernelStats, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(xp) != s.NCols || len(yp) < s.N {
		return nil, fmt.Errorf("gpu: sliced-ELL run |x|=%d |y|=%d on %dx%d: %w", len(xp), len(yp), s.N, s.NCols, matrix.ErrShape)
	}
	if err := eccCheck(opt, s.Name()); err != nil {
		return nil, err
	}
	p := planFor(opt, d, s.Name(), s, func() *Plan[T] {
		return compilePlan(d, planSource[T]{
			kernel: s.Name(), rows: s.N, cols: s.NCols, nPad: s.NPad,
			nnz: int64(s.NonZeros()), metaSegs: 2, // rowLen + slice offset/length metadata
			steps: s.RowLen,
			access: func(i, j int) (int64, int32) {
				sl, slLane := i/s.C, i%s.C
				at := s.SliceStart[sl] + int64(j*s.C+slLane)
				return at, s.ColIdx[at]
			},
			mulRows: func(y, x []T, lo, hi int, acc bool) { s.MulRows(y, x, lo, min(hi, s.N), acc) },
			stored:  s.StoredElems(),
			geometry: []telemetry.Label{
				telemetry.L("format", s.SELLName()),
				telemetry.Li("c", s.C),
				telemetry.Li("sigma", s.SortWindow),
			},
		})
	})
	return p.run(d, yp, xp, opt), nil
}

// lhsBytes counts the result-vector traffic for rows [lo, hi): one
// store (and one load when accumulating) per touched segment.
func lhsBytes(segs *segCounter, lo, hi, es int, segShift uint, segBytes int64, accumulate bool) int64 {
	segs.reset()
	for i := lo; i < hi; i++ {
		segs.add(addrLHS+int64(i)*int64(es), segShift)
	}
	b := int64(len(segs.segs)) * segBytes
	if accumulate {
		b *= 2
	}
	return b
}

// storeResult commits per-lane sums to y for rows below n.
func storeResult[T matrix.Float](y, sum []T, wbase, n int, accumulate bool) {
	for lane := 0; lane < len(sum); lane++ {
		i := wbase + lane
		if i >= n {
			break
		}
		if accumulate {
			y[i] += sum[lane]
		} else {
			y[i] = sum[lane]
		}
	}
}
