package formats

import (
	"fmt"

	"pjds/internal/matrix"
)

// WarpSize is the SIMD width of the Fermi GPUs the paper targets; the
// ELLPACK row dimension is padded to a multiple of it (§II-A,
// footnote 2).
const WarpSize = 32

// ELLPACK is the original ELLPACK/ITPACK format: every row is padded
// to the global maximum row length N^max_nzr and the resulting
// rectangular N×N^max_nzr array is stored column by column, giving
// coalesced loads for consecutive threads. The plain-ELLPACK kernel
// also *computes* on the padding (Fig. 2a), which ELLPACK-R avoids.
type ELLPACK[T matrix.Float] struct {
	N     int // logical rows
	NCols int
	NPad  int // N rounded up to a multiple of WarpSize
	NnzV  int // genuine non-zeros
	// MaxRowLen is N^max_nzr.
	MaxRowLen int
	// Val and ColIdx are NPad×MaxRowLen column-major: element (i, j)
	// lives at index j*NPad+i, as in Listing 1. Padding slots hold
	// value 0 and a safe in-range column index.
	Val    []T
	ColIdx []int32
	// RowLen[i] is the true length of row i (the ELLPACK-R rowmax[]
	// array; plain ELLPACK ignores it in the kernel but we keep one
	// copy so both variants share storage).
	RowLen []int32
}

// NewELLPACK builds the ELLPACK representation of m.
func NewELLPACK[T matrix.Float](m *matrix.CSR[T]) *ELLPACK[T] {
	return NewELLPACKWith(m, matrix.ConvertOptions{})
}

// NewELLPACKWith is NewELLPACK with explicit conversion options. The
// fill loop is parallel over rows — row i writes only slots j·NPad+i,
// so worker blocks never overlap and the result is bit-identical for
// every worker count.
func NewELLPACKWith[T matrix.Float](m *matrix.CSR[T], opt matrix.ConvertOptions) *ELLPACK[T] {
	done := opt.Phase("ellpack-fill")
	defer done()
	n := m.NRows
	npad := ((n + WarpSize - 1) / WarpSize) * WarpSize
	maxLen := m.MaxRowLen()
	e := &ELLPACK[T]{
		N:         n,
		NCols:     m.NCols,
		NPad:      npad,
		NnzV:      m.Nnz(),
		MaxRowLen: maxLen,
		Val:       make([]T, npad*maxLen),
		ColIdx:    make([]int32, npad*maxLen),
		RowLen:    make([]int32, npad),
	}
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(i)
			e.RowLen[i] = int32(len(cols))
			safe := int32(0)
			if len(cols) > 0 {
				safe = cols[0]
			}
			for j := 0; j < maxLen; j++ {
				at := j*npad + i
				if j < len(cols) {
					e.Val[at] = vals[j]
					e.ColIdx[at] = cols[j]
				} else {
					e.ColIdx[at] = safe
				}
			}
		}
	})
	return e
}

// Name implements Format.
func (e *ELLPACK[T]) Name() string { return "ELLPACK" }

// Rows implements Format.
func (e *ELLPACK[T]) Rows() int { return e.N }

// Cols implements Format.
func (e *ELLPACK[T]) Cols() int { return e.NCols }

// NonZeros implements Format.
func (e *ELLPACK[T]) NonZeros() int { return e.NnzV }

// StoredElems implements Format: the full padded rectangle.
func (e *ELLPACK[T]) StoredElems() int64 { return int64(e.NPad) * int64(e.MaxRowLen) }

// FootprintBytes implements Format (values + indices; plain ELLPACK
// has no auxiliary arrays).
func (e *ELLPACK[T]) FootprintBytes() int64 {
	return e.StoredElems() * int64(SizeofElem[T]()+4)
}

// MulVec implements Format with the plain ELLPACK kernel, which visits
// every padded slot (the wasted work of Fig. 2a).
func (e *ELLPACK[T]) MulVec(y, x []T) error {
	if len(x) != e.NCols || len(y) != e.N {
		return fmt.Errorf("formats: ELLPACK MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	e.MulRows(y, x, 0, e.N, false)
	return nil
}

// MulRows computes rows [lo, hi) of y = A·x (y += A·x when accumulate
// is set), each row summed over all MaxRowLen padded slots. It is the
// one plain-ELLPACK body: MulVec and the simulated device replay both
// run it.
func (e *ELLPACK[T]) MulRows(y, x []T, lo, hi int, accumulate bool) {
	for i := lo; i < hi; i++ {
		var sum T
		for j := 0; j < e.MaxRowLen; j++ {
			at := j*e.NPad + i
			sum += e.Val[at] * x[e.ColIdx[at]]
		}
		storeRow(y, i, sum, accumulate)
	}
}

// storeRow commits one row sum: y[i] = sum, or y[i] += sum.
func storeRow[T matrix.Float](y []T, i int, sum T, accumulate bool) {
	if accumulate {
		y[i] += sum
	} else {
		y[i] = sum
	}
}

// ELLPACKR is the ELLPACK-R variant of Vázquez et al.: identical
// storage, but the kernel stops each row at its true length
// (Listing 1), trading redundant computation for warp-level load
// imbalance (Fig. 2b).
type ELLPACKR[T matrix.Float] struct {
	ELLPACK[T]
}

// NewELLPACKR builds the ELLPACK-R representation of m.
func NewELLPACKR[T matrix.Float](m *matrix.CSR[T]) *ELLPACKR[T] {
	return &ELLPACKR[T]{ELLPACK: *NewELLPACK(m)}
}

// NewELLPACKRWith is NewELLPACKR with explicit conversion options.
func NewELLPACKRWith[T matrix.Float](m *matrix.CSR[T], opt matrix.ConvertOptions) *ELLPACKR[T] {
	return &ELLPACKR[T]{ELLPACK: *NewELLPACKWith(m, opt)}
}

// Name implements Format.
func (e *ELLPACKR[T]) Name() string { return "ELLPACK-R" }

// FootprintBytes implements Format: ELLPACK storage plus the rowmax[]
// array.
func (e *ELLPACKR[T]) FootprintBytes() int64 {
	return e.ELLPACK.FootprintBytes() + int64(len(e.RowLen))*4
}

// MulVec implements Format with the ELLPACK-R kernel of Listing 1.
func (e *ELLPACKR[T]) MulVec(y, x []T) error {
	if len(x) != e.NCols || len(y) != e.N {
		return fmt.Errorf("formats: ELLPACK-R MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), e.N, e.NCols, matrix.ErrShape)
	}
	e.MulRows(y, x, 0, e.N, false)
	return nil
}

// MulRows computes rows [lo, hi) of y = A·x (y += A·x when accumulate
// is set), each row stopping at its true length. It is the one
// ELLPACK-R body: MulVec and the simulated device replay both run it.
func (e *ELLPACKR[T]) MulRows(y, x []T, lo, hi int, accumulate bool) {
	for i := lo; i < hi; i++ {
		var sum T
		for j := 0; j < int(e.RowLen[i]); j++ {
			at := j*e.NPad + i
			sum += e.Val[at] * x[e.ColIdx[at]]
		}
		storeRow(y, i, sum, accumulate)
	}
}
