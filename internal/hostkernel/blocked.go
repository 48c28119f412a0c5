package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
)

// BlockedCRS is the blocked CRS kernel. Rows are split once into
// nnz-balanced contiguous chunks (one per worker, the shared Chunks
// schedule) and executed on a persistent par.Pool; within a chunk the
// kernel advances two consecutive rows in lockstep over their common
// length prefix through bounds-check-free sub-slices (v0/c0/v1/c1
// share one compiler-provable length), each row with its own
// accumulator, then finishes the ragged tails row by row. Wider
// lockstep groups and inner unrolling measured no faster, x-column
// tiling ~2× slower: with only two rows the profitable lever on this
// kernel is bounds-check elimination (see DESIGN.md). Per-row
// summation order never changes, so the result is bit-identical to
// the naive reference.
type BlockedCRS struct {
	m      *matrix.CSR[float64]
	bounds []int
	pool   *par.Pool
	mt     *meter

	// Per-apply state published to the pool workers (the pool's
	// channel send / WaitGroup pair gives the happens-before edges).
	y, x  []float64
	add   bool
	runFn func(w int)
}

// NewBlockedCRS builds the blocked kernel over m.
func NewBlockedCRS(m *matrix.CSR[float64], opt Options) *BlockedCRS {
	workers := par.Resolve(opt.Workers)
	if workers > m.NRows {
		workers = m.NRows
	}
	if workers < 1 {
		workers = 1
	}
	k := &BlockedCRS{
		m:      m,
		bounds: Chunks(m.RowPtr, workers),
		mt:     newMeter(opt.Metrics, string(KindBlocked), int64(m.Nnz()), m.NRows, m.NCols),
	}
	k.runFn = k.run
	if workers > 1 {
		k.pool = par.NewPool(workers)
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", string(KindBlocked), "format", "crs"))
		runtime.SetFinalizer(k, (*BlockedCRS).Close)
	}
	return k
}

// Name implements Kernel.
func (k *BlockedCRS) Name() string { return string(KindBlocked) }

// Rows implements Kernel.
func (k *BlockedCRS) Rows() int { return k.m.NRows }

// Cols implements Kernel.
func (k *BlockedCRS) Cols() int { return k.m.NCols }

// MulVec implements Kernel.
func (k *BlockedCRS) MulVec(y, x []float64) error { return k.apply(y, x, false) }

// MulVecAdd implements Kernel.
func (k *BlockedCRS) MulVecAdd(y, x []float64) error { return k.apply(y, x, true) }

func (k *BlockedCRS) apply(y, x []float64, add bool) error {
	if len(x) != k.m.NCols || len(y) != k.m.NRows {
		return fmt.Errorf("hostkernel: blocked |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), k.m.NRows, k.m.NCols, matrix.ErrShape)
	}
	t0 := k.mt.start()
	k.y, k.x, k.add = y, x, add
	if k.pool != nil {
		k.pool.Run(k.runFn)
	} else {
		k.run(0)
	}
	k.y, k.x = nil, nil
	k.mt.observe(t0)
	return nil
}

// run executes worker w's row chunk two rows at a time: the pair's
// common length prefix runs in lockstep through sub-slices whose
// shared length the compiler can prove, eliding every bounds check on
// v0/c0/v1/c1, with one independent accumulator per row; the ragged
// tails then finish row by row. The set and add flavours are separate
// functions so the hot loop carries no mode branch (keeping the store
// path out of the loop body is worth ~10% on this kernel).
func (k *BlockedCRS) run(w int) {
	lo, hi := k.bounds[w], k.bounds[w+1]
	m := k.m
	if k.add {
		crsPairsAdd(m.RowPtr, m.Val, m.ColIdx, k.y, k.x, lo, hi)
		return
	}
	crsPairsSet(m.RowPtr, m.Val, m.ColIdx, k.y, k.x, lo, hi)
}

func crsPairsSet(rp []int, val []float64, idx []int32, y, x []float64, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		p0, p1, q0, q1 := rp[i], rp[i+1], rp[i+1], rp[i+2]
		minL := q0 - p0
		if l := q1 - p1; l < minL {
			minL = l
		}
		v0 := val[p0 : p0+minL]
		c0 := idx[p0 : p0+minL]
		v1 := val[p1 : p1+minL]
		c1 := idx[p1 : p1+minL]
		var s0, s1 float64
		for j := range v0 {
			s0 += v0[j] * x[c0[j]]
			s1 += v1[j] * x[c1[j]]
		}
		y[i] = rowTail(s0, val, idx, x, p0+minL, q0)
		y[i+1] = rowTail(s1, val, idx, x, p1+minL, q1)
	}
	for ; i < hi; i++ {
		y[i] = rowTail(0, val, idx, x, rp[i], rp[i+1])
	}
}

func crsPairsAdd(rp []int, val []float64, idx []int32, y, x []float64, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		p0, p1, q0, q1 := rp[i], rp[i+1], rp[i+1], rp[i+2]
		minL := q0 - p0
		if l := q1 - p1; l < minL {
			minL = l
		}
		v0 := val[p0 : p0+minL]
		c0 := idx[p0 : p0+minL]
		v1 := val[p1 : p1+minL]
		c1 := idx[p1 : p1+minL]
		var s0, s1 float64
		for j := range v0 {
			s0 += v0[j] * x[c0[j]]
			s1 += v1[j] * x[c1[j]]
		}
		y[i] += rowTail(s0, val, idx, x, p0+minL, q0)
		y[i+1] += rowTail(s1, val, idx, x, p1+minL, q1)
	}
	for ; i < hi; i++ {
		y[i] += rowTail(0, val, idx, x, rp[i], rp[i+1])
	}
}

// rowTail accumulates sum += val[p]·x[idx[p]] over [p, q) — the
// remainder of one row after its group's lockstep prefix, in the
// row's stored column order.
func rowTail(sum float64, val []float64, idx []int32, x []float64, p, q int) float64 {
	for ; p < q; p++ {
		sum += val[p] * x[idx[p]]
	}
	return sum
}

// Close implements Kernel: releases the worker pool.
func (k *BlockedCRS) Close() {
	if k.pool != nil {
		runtime.SetFinalizer(k, nil)
		k.pool.Close()
	}
}
