package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/core"
	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
)

// PJDSKernel is the parallel host kernel over a pJDS
// layout. It is the host execution engine of the solver's permuted
// operator (and therefore of the ECC-downgrade path): it runs
// core.PJDS.MulRows — the same body as MulVecPermuted and the
// simulated device, so bit-identical — over rows statically
// partitioned into nnz-balanced worker chunks.
type PJDSKernel struct {
	p      *core.PJDS[float64]
	bounds []int
	pool   *par.Pool
	mt     *meter

	y, x  []float64
	add   bool
	runFn func(w int)
}

// NewPJDS builds the kernel over an existing pJDS matrix.
func NewPJDS(p *core.PJDS[float64], opt Options) *PJDSKernel {
	workers := par.Resolve(opt.Workers)
	if workers > p.N {
		workers = p.N
	}
	if workers < 1 {
		workers = 1
	}
	// RowLen prefix sums feed the shared nnz-balanced schedule (sorted
	// rows, so early chunks hold few long rows and late chunks many
	// short ones).
	prefix := make([]int, p.N+1)
	for i := 0; i < p.N; i++ {
		prefix[i+1] = prefix[i] + int(p.RowLen[i])
	}
	k := &PJDSKernel{
		p:      p,
		bounds: Chunks(prefix, workers),
		mt:     newMeter(opt.Metrics, "pjds", int64(p.Nnz), p.N, p.NCols),
	}
	k.runFn = k.run
	if workers > 1 {
		k.pool = par.NewPool(workers)
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", "pjds", "format", "pjds"))
		runtime.SetFinalizer(k, (*PJDSKernel).Close)
	}
	return k
}

// Name implements Kernel.
func (k *PJDSKernel) Name() string { return "pjds" }

// Rows implements Kernel.
func (k *PJDSKernel) Rows() int { return k.p.N }

// Cols implements Kernel.
func (k *PJDSKernel) Cols() int { return k.p.NCols }

// MulVec implements Kernel in the permuted basis: yp = Ap·xp, the
// parallel equivalent of core.PJDS.MulVecPermuted.
func (k *PJDSKernel) MulVec(yp, xp []float64) error { return k.apply(yp, xp, false) }

// MulVecAdd implements Kernel in the permuted basis: yp += Ap·xp.
func (k *PJDSKernel) MulVecAdd(yp, xp []float64) error { return k.apply(yp, xp, true) }

func (k *PJDSKernel) apply(yp, xp []float64, add bool) error {
	if len(xp) != k.p.NCols || len(yp) < k.p.N {
		return fmt.Errorf("hostkernel: pjds |x|=%d |y|=%d on %dx%d: %w", len(xp), len(yp), k.p.N, k.p.NCols, matrix.ErrShape)
	}
	t0 := k.mt.start()
	k.y, k.x, k.add = yp, xp, add
	if k.pool != nil {
		k.pool.Run(k.runFn)
	} else {
		k.run(0)
	}
	k.y, k.x = nil, nil
	k.mt.observe(t0)
	return nil
}

// run executes worker w's sorted-row chunk with the shared pJDS row
// body.
func (k *PJDSKernel) run(w int) {
	k.p.MulRows(k.y, k.x, k.bounds[w], k.bounds[w+1], k.add)
}

// Close implements Kernel: releases the worker pool.
func (k *PJDSKernel) Close() {
	if k.pool != nil {
		runtime.SetFinalizer(k, nil)
		k.pool.Close()
	}
}
