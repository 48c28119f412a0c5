package hostkernel

import "pjds/internal/matrix"

// Naive is the sequential CRS reference kernel: it delegates straight
// to matrix.CSR's MulVec/MulVecAdd, the correctness reference for
// every other kernel in the repository. It exists so cross-checks,
// fuzzing, and spmvbench -hostbench -host-kernel naive exercise the
// exact baseline the optimized kernels must be bit-identical to.
type Naive struct {
	m  *matrix.CSR[float64]
	mt *meter
}

// NewNaive builds the reference kernel (Workers, C and Sigma are
// ignored — the reference is sequential by definition).
func NewNaive(m *matrix.CSR[float64], opt Options) *Naive {
	return &Naive{m: m, mt: newMeter(opt.Metrics, string(KindNaive), int64(m.Nnz()), m.NRows, m.NCols)}
}

// Name implements Kernel.
func (k *Naive) Name() string { return string(KindNaive) }

// Rows implements Kernel.
func (k *Naive) Rows() int { return k.m.NRows }

// Cols implements Kernel.
func (k *Naive) Cols() int { return k.m.NCols }

// MulVec implements Kernel.
func (k *Naive) MulVec(y, x []float64) error {
	t0 := k.mt.start()
	if err := k.m.MulVec(y, x); err != nil {
		return err
	}
	k.mt.observe(t0)
	return nil
}

// MulVecAdd implements Kernel.
func (k *Naive) MulVecAdd(y, x []float64) error {
	t0 := k.mt.start()
	if err := k.m.MulVecAdd(y, x); err != nil {
		return err
	}
	k.mt.observe(t0)
	return nil
}

// Close implements Kernel (no pool to release).
func (k *Naive) Close() {}
