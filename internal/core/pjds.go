// Package core implements the paper's primary contribution: the
// "padded Jagged Diagonals Storage" (pJDS) sparse-matrix format of
// Kreutzer et al. (IPDPS 2012), §II-A.
//
// The format is derived from a matrix in three steps (Fig. 1):
//
//  1. compress — shift the non-zeros of every row to the left, as in
//     ELLPACK;
//  2. sort — reorder rows by descending number of non-zeros (the
//     jagged-diagonals idea), remembering the permutation;
//  3. pad — group blocks of br consecutive sorted rows (br should be
//     the warp size) and pad every row in a block to the longest row
//     of that block.
//
// The padded columns are then stored consecutively, column by column,
// and a small col_start array of N^max_nzr offsets locates each
// column. Because rows are sorted, the rows participating in column j
// form a prefix of the sorted row order, so the kernel of the paper's
// Listing 2 addresses element (i, j) as val[col_start[j]+i] — the same
// shape as the ELLPACK-R kernel, but without loading padding from rows
// much longer than row i's block.
//
// The spMVM operates in the permuted basis. MulVecPermuted is the raw
// kernel; MulVec wraps it with the gather/scatter so callers that do
// not manage the permutation themselves still get correct results, at
// the cost the paper describes (permutation only pays off when done
// once around an entire iterative solve).
package core

import (
	"fmt"

	"pjds/internal/matrix"
)

// DefaultBlockHeight is the paper's choice of br: the warp size of the
// Fermi GPUs used in the evaluation.
const DefaultBlockHeight = 32

// Options configure pJDS construction.
type Options struct {
	// BlockHeight is the paper's br, the number of consecutive sorted
	// rows padded to a common length. It should equal the device warp
	// size; 0 selects DefaultBlockHeight. BlockHeight 1 degenerates to
	// the classic (unpadded) JDS format.
	BlockHeight int
	// Convert carries the parallel-construction knobs (worker count,
	// scratch arena, phase timer). The zero value is sequential-default
	// and uninstrumented; every worker count builds a bit-identical
	// PJDS.
	Convert matrix.ConvertOptions
}

// PJDS is a padded-jagged-diagonals-storage matrix. All slices are
// exported so device kernels (internal/gpu) can address them directly,
// as CUDA kernels would.
type PJDS[T matrix.Float] struct {
	N     int // rows of the original matrix (before warp padding)
	NCols int
	NPad  int // N rounded up to a multiple of BlockHeight
	// Nnz is the number of genuine non-zeros (excluding padding).
	Nnz int
	// MaxRowLen is the paper's N^max_nzr.
	MaxRowLen int
	// BlockHeight is br.
	BlockHeight int

	// Val and ColIdx hold the padded jagged diagonals, column by
	// column. Column j occupies Val[ColStart[j]:ColStart[j+1]]; within
	// a column, entry i belongs to sorted row i. Padding entries have
	// value 0 and a column index pointing at the row's own diagonal
	// position clamped into range, so gathering them is always legal.
	Val    []T
	ColIdx []int32
	// ColStart has MaxRowLen+1 entries; ColStart[j] is the offset of
	// padded column j (the paper's col_start[], with one extra entry
	// so column heights are recoverable).
	ColStart []int32
	// RowLen[i] is the true (unpadded) length of sorted row i, the
	// paper's rowmax[] in Listing 2.
	RowLen []int32
	// Perm maps sorted row index to original row index (Perm[new]=old).
	Perm matrix.Perm
}

// NewPJDS builds the pJDS representation of m. The matrix may be
// rectangular; rows are sorted globally by descending length as in the
// paper.
func NewPJDS[T matrix.Float](m *matrix.CSR[T], opt Options) (*PJDS[T], error) {
	br := opt.BlockHeight
	if br == 0 {
		br = DefaultBlockHeight
	}
	if br < 1 {
		return nil, fmt.Errorf("core: block height %d < 1", br)
	}

	cv := opt.Convert
	perm := matrix.SortRowsByLengthDescOpt(m, cv)
	n := m.NRows
	npad := ((n + br - 1) / br) * br

	p := &PJDS[T]{
		N:           n,
		NCols:       m.NCols,
		NPad:        npad,
		Nnz:         m.Nnz(),
		BlockHeight: br,
		RowLen:      make([]int32, npad),
		Perm:        perm,
	}

	donePad := cv.Phase("pjds-pad")
	// Padded length of every (sorted) row: the longest true length in
	// its block. Because rows are sorted descending, that is the
	// length of the first row of the block. Both loops write disjoint
	// index blocks, so the parallel result is identical to sequential.
	padLen := cv.Arena.Int32(npad)
	cv.Run(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.RowLen[i] = int32(m.RowLen(perm[i]))
		}
	})
	nBlocks := npad / br
	cv.Run(nBlocks, func(w, lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := bi * br
			blockLen := int32(0)
			if b < n {
				blockLen = p.RowLen[b]
			}
			for i := b; i < b+br; i++ {
				padLen[i] = blockLen
			}
		}
	})
	if n > 0 {
		p.MaxRowLen = int(padLen[0])
	}

	// Column heights: column j holds every row with padLen > j. Rows
	// are sorted, so these are a prefix; height(j) = count of rows
	// with padLen[i] > j.
	p.ColStart = make([]int32, p.MaxRowLen+1)
	// height(j) is computed from the padded-length histogram: it
	// decreases as j passes each block's padded length.
	heights := cv.Arena.Int32(p.MaxRowLen)
	histo := cv.Arena.Int32(p.MaxRowLen + 1)
	for _, l := range padLen {
		histo[l]++
	}
	running := int32(npad)
	for j := 0; j < p.MaxRowLen; j++ {
		running -= histo[j] // rows whose padded length is exactly j end before column j
		heights[j] = running
	}
	total := int32(0)
	for j := 0; j < p.MaxRowLen; j++ {
		p.ColStart[j] = total
		total += heights[j]
	}
	p.ColStart[p.MaxRowLen] = total
	donePad()

	doneFill := cv.Phase("pjds-fill")
	p.Val = make([]T, total)
	p.ColIdx = make([]int32, total)

	// Fill: walk every sorted row, write its entries into its slots of
	// each column; pad the remainder of the padded length with zeros
	// whose column index is a safe in-range gather target. Row i only
	// writes slots ColStart[j]+i, so rows are independent and the loop
	// parallelizes without changing a single byte of the output.
	cv.Run(npad, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			var cols []int32
			var vals []T
			if i < n {
				cols, vals = m.Row(perm[i])
			}
			safe := int32(0)
			if len(cols) > 0 {
				safe = cols[0]
			}
			pl := int(padLen[i])
			for j := 0; j < pl; j++ {
				at := int(p.ColStart[j]) + i
				if j < len(cols) {
					p.Val[at] = vals[j]
					p.ColIdx[at] = cols[j]
				} else {
					p.Val[at] = 0
					p.ColIdx[at] = safe
				}
			}
		}
	})
	doneFill()
	return p, nil
}

// Name identifies the format in reports.
func (p *PJDS[T]) Name() string {
	if p.BlockHeight == 1 {
		return "JDS"
	}
	return "pJDS"
}

// Rows returns the row count of the original matrix.
func (p *PJDS[T]) Rows() int { return p.N }

// Cols returns the column count of the original matrix.
func (p *PJDS[T]) Cols() int { return p.NCols }

// NonZeros returns the number of genuine non-zeros.
func (p *PJDS[T]) NonZeros() int { return p.Nnz }

// StoredElems returns the number of stored value slots including
// padding — the quantity Table I's data-reduction row compares against
// ELLPACK.
func (p *PJDS[T]) StoredElems() int64 { return int64(len(p.Val)) }

// FootprintBytes returns the device-memory footprint: values, column
// indices, the col_start array, the row-length array, and the
// permutation (needed on the device to leave the permuted basis).
func (p *PJDS[T]) FootprintBytes() int64 {
	valBytes := int64(SizeofElem[T]())
	return int64(len(p.Val))*(valBytes+4) + // val + col_idx
		int64(len(p.ColStart))*4 +
		int64(len(p.RowLen))*4 +
		int64(len(p.Perm))*4
}

// PaddingOverhead returns stored/Nnz − 1, the fraction of wasted
// slots. The paper reports < 0.01% for its matrices at br = 32
// (wording: overhead "compared to a minimum implementation").
func (p *PJDS[T]) PaddingOverhead() float64 {
	if p.Nnz == 0 {
		return 0
	}
	return float64(p.StoredElems()-int64(p.Nnz)) / float64(p.Nnz)
}

// RowPerm returns the sorting permutation (new → old).
func (p *PJDS[T]) RowPerm() matrix.Perm { return p.Perm }

// MulVecPermuted computes yp = Ap·xp entirely in the permuted basis:
// xp must be the column-space vector (unpermuted for rectangular
// matrices; for the symmetric-permutation use of square solvers, pass
// the gathered vector) and yp receives sorted-row results. It is the
// Go rendering of the paper's Listing 2.
func (p *PJDS[T]) MulVecPermuted(yp, xp []T) error {
	if len(xp) != p.NCols || len(yp) < p.N {
		return fmt.Errorf("core: MulVecPermuted |x|=%d |y|=%d on %dx%d: %w", len(xp), len(yp), p.N, p.NCols, matrix.ErrShape)
	}
	p.MulRows(yp, xp, 0, p.N, false)
	return nil
}

// MulRows computes sorted rows [lo, hi) of yp = Ap·xp (yp += Ap·xp
// when accumulate is set) with the Listing-2 access pattern
// val[col_start[j]+i]. Rows advance 4 at a time in lockstep, as the
// threads of a warp do: rows are sorted by descending length, so rows
// i..i+3 all have genuine entries in the first RowLen[i+3] columns,
// and each such column holds their 4 entries contiguously at
// ColStart[j]+i. The 4 rows run that shared prefix with independent
// accumulators, then each finishes its own ragged tail; rows left over
// at the end of the range run alone. Each row is still summed in
// stored column order and padding is never read, so any partition of
// the rows gives the same bits. It is the one pJDS body:
// MulVecPermuted, the host kernel's workers and the simulated device
// replay all run it.
func (p *PJDS[T]) MulRows(yp, xp []T, lo, hi int, accumulate bool) {
	val, idx, cs, rl := p.Val, p.ColIdx, p.ColStart, p.RowLen
	i := lo
	for ; i+4 <= hi; i += 4 {
		var s0, s1, s2, s3 T
		shared := int(rl[i+3])
		for _, c := range cs[:shared] {
			o := int(c) + i
			v := val[o : o+4 : o+4]
			k := idx[o : o+4 : o+4]
			s0 += v[0] * xp[k[0]]
			s1 += v[1] * xp[k[1]]
			s2 += v[2] * xp[k[2]]
			s3 += v[3] * xp[k[3]]
		}
		s0 = p.rowTail(s0, xp, i, shared)
		s1 = p.rowTail(s1, xp, i+1, shared)
		s2 = p.rowTail(s2, xp, i+2, shared)
		s3 = p.rowTail(s3, xp, i+3, shared)
		y := yp[i : i+4 : i+4]
		if accumulate {
			y[0] += s0
			y[1] += s1
			y[2] += s2
			y[3] += s3
		} else {
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		sum := p.rowTail(0, xp, i, 0)
		if accumulate {
			yp[i] += sum
		} else {
			yp[i] = sum
		}
	}
}

// rowTail adds sorted row i's entries from column j on to sum, in
// stored column order.
func (p *PJDS[T]) rowTail(sum T, xp []T, i, j int) T {
	for ; j < int(p.RowLen[i]); j++ {
		o := int(p.ColStart[j]) + i
		sum += p.Val[o] * xp[p.ColIdx[o]]
	}
	return sum
}

// MulVec computes y = A·x in the original row order, scattering the
// permuted result back. Iterative solvers should instead permute once
// and use MulVecPermuted inside the loop (§II-A).
func (p *PJDS[T]) MulVec(y, x []T) error {
	if len(x) != p.NCols || len(y) != p.N {
		return fmt.Errorf("core: MulVec |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), p.N, p.NCols, matrix.ErrShape)
	}
	yp := make([]T, p.N)
	if err := p.MulVecPermuted(yp, x); err != nil {
		return err
	}
	matrix.Scatter(y, yp, p.Perm)
	return nil
}

// BlockCount returns the number of br-row blocks (including the final
// padded block).
func (p *PJDS[T]) BlockCount() int { return p.NPad / p.BlockHeight }

// BlockLen returns the padded row length of block b.
func (p *PJDS[T]) BlockLen(b int) int {
	i := b * p.BlockHeight
	if i >= p.N {
		return 0
	}
	return int(p.RowLen[i]) // first row of a block is its longest
}

// ColumnHeight returns the number of rows stored in padded column j.
func (p *PJDS[T]) ColumnHeight(j int) int {
	return int(p.ColStart[j+1] - p.ColStart[j])
}

// SizeofElem reports the byte width of the element type: 4 for
// float32 (SP), 8 for float64 (DP).
func SizeofElem[T matrix.Float]() int {
	var v T
	switch any(v).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}
