package formats

import (
	"fmt"

	"pjds/internal/matrix"
)

// SlicedELL is the sliced-ELLPACK format family (Monakov et al. [12],
// Dziekonski et al. [13] — the related work named in the paper's
// outlook, and the direct precursor of SELL-C-σ). The matrix is cut
// into slices of C consecutive rows; each slice is padded to its own
// maximum row length and stored column-major within the slice.
//
// With SortWindow σ > 1, rows are pre-sorted by descending length
// inside windows of σ rows before slicing, which reduces padding
// without the global permutation of pJDS (σ = N reproduces the global
// sort; σ = 1 keeps the original order). This doubles as the
// DESIGN.md "sorting window" ablation for pJDS.
type SlicedELL[T matrix.Float] struct {
	N     int
	NCols int
	NPad  int // N rounded up to a multiple of C
	NnzV  int
	// C is the slice height (typically the warp size).
	C int
	// SortWindow is σ; 1 means no sorting.
	SortWindow int
	MaxRowLen  int

	// Val and ColIdx hold each slice's padded rectangle column-major
	// within the slice: slice s occupies
	// Val[SliceStart[s]:SliceStart[s+1]], and element (lane, j) of the
	// slice is at SliceStart[s] + j*C + lane.
	Val    []T
	ColIdx []int32
	// SliceStart has NPad/C+1 entries.
	SliceStart []int64
	// SliceLen[s] is the padded row length of slice s.
	SliceLen []int32
	// RowLen[i] is the true length of (permuted) row i.
	RowLen []int32
	// Perm maps stored row order to original rows (identity when
	// SortWindow == 1).
	Perm matrix.Perm
}

// NewSlicedELL builds a sliced-ELLPACK matrix with slice height c and
// sorting window sigma (use 1 for unsorted, m.NRows for a global
// sort). c must be ≥ 1; sigma is clamped to [1, N] and rounded up to a
// multiple of c so slices never straddle windows.
func NewSlicedELL[T matrix.Float](m *matrix.CSR[T], c, sigma int) (*SlicedELL[T], error) {
	return NewSlicedELLWith(m, c, sigma, matrix.ConvertOptions{})
}

// NewSlicedELLWith is NewSlicedELL with explicit conversion options.
// The windowed sort runs in-place on a shared row-length array with
// one stable counting sort per window (no more per-window RowSlice
// copies), windows parallelized across workers; the slice fill is
// parallel over rows. Every worker count builds the identical matrix.
func NewSlicedELLWith[T matrix.Float](m *matrix.CSR[T], c, sigma int, opt matrix.ConvertOptions) (*SlicedELL[T], error) {
	if c < 1 {
		return nil, fmt.Errorf("formats: slice height %d < 1", c)
	}
	n := m.NRows
	if sigma < 1 {
		sigma = 1
	}
	if sigma > 1 && sigma < n && sigma%c != 0 {
		sigma = ((sigma + c - 1) / c) * c
	}
	if sigma > n {
		sigma = n
	}

	doneSort := opt.Phase("sliced-sort")
	workers := opt.EffectiveWorkers()
	// Row lengths and the global maximum, shared by the windowed sort
	// and the slice layout below.
	lens := opt.Arena.Int(n)
	maxW := opt.Arena.Int(workers)
	opt.Run(n, func(w, lo, hi int) {
		max := 0
		for i := lo; i < hi; i++ {
			l := m.RowLen(i)
			lens[i] = l
			if l > max {
				max = l
			}
		}
		if max > maxW[w] {
			maxW[w] = max
		}
	})
	maxLen := 0
	for _, v := range maxW {
		if v > maxLen {
			maxLen = v
		}
	}

	// Windowed sort: sort rows by descending length within each window
	// of sigma rows. Windows are independent, so they distribute over
	// workers with one counting-sort scratch buffer each.
	perm := matrix.Identity(n)
	if sigma > 1 && n > 0 {
		nWindows := (n + sigma - 1) / sigma
		counts := make([][]int, workers)
		for w := range counts {
			counts[w] = opt.Arena.Int(maxLen + 2)
		}
		opt.Run(nWindows, func(w, lo, hi int) {
			for win := lo; win < hi; win++ {
				wlo := win * sigma
				whi := wlo + sigma
				if whi > n {
					whi = n
				}
				matrix.SortRangeByLengthDesc(lens, wlo, whi, perm, counts[w])
			}
		})
	}
	doneSort()

	doneFill := opt.Phase("sliced-fill")
	npad := ((n + c - 1) / c) * c
	s := &SlicedELL[T]{
		N:          n,
		NCols:      m.NCols,
		NPad:       npad,
		NnzV:       m.Nnz(),
		C:          c,
		SortWindow: sigma,
		MaxRowLen:  maxLen,
		RowLen:     make([]int32, npad),
		Perm:       perm,
	}
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.RowLen[i] = int32(lens[perm[i]])
		}
	})

	nSlices := npad / c
	s.SliceStart = make([]int64, nSlices+1)
	s.SliceLen = make([]int32, nSlices)
	var total int64
	for sl := 0; sl < nSlices; sl++ {
		maxLen := int32(0)
		for lane := 0; lane < c; lane++ {
			if l := s.RowLen[sl*c+lane]; l > maxLen {
				maxLen = l
			}
		}
		s.SliceLen[sl] = maxLen
		s.SliceStart[sl] = total
		total += int64(maxLen) * int64(c)
	}
	s.SliceStart[nSlices] = total

	s.Val = make([]T, total)
	s.ColIdx = make([]int32, total)
	opt.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.Row(perm[i])
			safe := int32(0)
			if len(cols) > 0 {
				safe = cols[0]
			}
			sl, lane := i/c, i%c
			base := s.SliceStart[sl]
			for j := 0; j < int(s.SliceLen[sl]); j++ {
				at := base + int64(j*c+lane)
				if j < len(cols) {
					s.Val[at] = vals[j]
					s.ColIdx[at] = cols[j]
				} else {
					s.ColIdx[at] = safe
				}
			}
		}
	})
	doneFill()
	return s, nil
}

// Name implements Format.
func (s *SlicedELL[T]) Name() string {
	if s.SortWindow > 1 {
		return "sliced-ELL-sorted"
	}
	return "sliced-ELL"
}

// Rows implements Format.
func (s *SlicedELL[T]) Rows() int { return s.N }

// Cols implements Format.
func (s *SlicedELL[T]) Cols() int { return s.NCols }

// NonZeros implements Format.
func (s *SlicedELL[T]) NonZeros() int { return s.NnzV }

// StoredElems implements Format.
func (s *SlicedELL[T]) StoredElems() int64 { return int64(len(s.Val)) }

// FootprintBytes implements Format: padded slices, the slice-offset
// and slice-length arrays, row lengths, and the permutation when a
// sort was applied.
func (s *SlicedELL[T]) FootprintBytes() int64 {
	b := s.StoredElems()*int64(SizeofElem[T]()+4) +
		int64(len(s.SliceStart))*8 +
		int64(len(s.SliceLen))*4 +
		int64(len(s.RowLen))*4
	if s.SortWindow > 1 {
		b += int64(len(s.Perm)) * 4
	}
	return b
}

// RowPerm implements RowPermuted.
func (s *SlicedELL[T]) RowPerm() matrix.Perm { return s.Perm }

// MulVecPermuted computes yp = Ap·xp with sorted-row output, the
// sliced-ELLR-T kernel with one thread per row.
func (s *SlicedELL[T]) MulVecPermuted(yp, xp []T) error {
	if len(xp) != s.NCols || len(yp) < s.N {
		return fmt.Errorf("formats: sliced MulVecPermuted |x|=%d |y|=%d on %dx%d: %w", len(xp), len(yp), s.N, s.NCols, matrix.ErrShape)
	}
	s.MulRows(yp, xp, 0, s.N, false)
	return nil
}

// MulRows computes stored rows [lo, hi) of yp = Ap·xp (yp += Ap·xp
// when accumulate is set). It is the one sliced-ELLPACK body:
// MulVecPermuted and the simulated device replay both run it.
func (s *SlicedELL[T]) MulRows(yp, xp []T, lo, hi int, accumulate bool) {
	for i := lo; i < hi; i++ {
		sl, lane := i/s.C, i%s.C
		base := s.SliceStart[sl]
		var sum T
		for j := 0; j < int(s.RowLen[i]); j++ {
			at := base + int64(j*s.C+lane)
			sum += s.Val[at] * xp[s.ColIdx[at]]
		}
		storeRow(yp, i, sum, accumulate)
	}
}

// MulVec implements Format in the original basis.
func (s *SlicedELL[T]) MulVec(y, x []T) error {
	if len(x) != s.NCols || len(y) != s.N {
		return fmt.Errorf("formats: sliced MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), s.N, s.NCols, matrix.ErrShape)
	}
	if s.SortWindow <= 1 {
		return s.MulVecPermuted(y, x)
	}
	yp := make([]T, s.N)
	if err := s.MulVecPermuted(yp, x); err != nil {
		return err
	}
	matrix.Scatter(y, yp, s.Perm)
	return nil
}
