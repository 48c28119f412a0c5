package formats

import (
	"fmt"

	"pjds/internal/matrix"
)

// SELL-C-σ is the unified chunked format of Kreutzer et al.
// (arXiv:1307.6209) that generalizes both the paper's pJDS and the
// sliced-ELLPACK family: the matrix is cut into chunks of C rows
// padded to the chunk maximum, after sorting rows by descending
// length inside windows of σ rows. The SlicedELL type of this package
// is exactly that parameterization (NewSlicedELLWith(m, C, σ, opt)) —
// this file adds the SELL-C-σ vocabulary on top of it: the canonical
// names and the zero-padding overhead β that the (C, σ) auto-tuner
// minimizes. The repo's fixed formats are two points of the family:
//
//   - pJDS           = SELL-32-∞ (NewSlicedELLWith(m, 32, m.NRows, opt))
//   - plain SlicedELL = SELL-C-1  (NewSlicedELLWith(m, C, 1, opt))
//
// See DESIGN.md "SELL-C-σ and the format tuner" for the full mapping
// to the paper's quantities.

// SELLName renders the canonical SELL-C-σ name for a chunk height c
// and sorting scope sigma on an n-row matrix: "SELL-32-∞" when the
// window covers the whole matrix (the pJDS/global-sort case),
// "SELL-8-256" otherwise.
func SELLName(c, sigma, n int) string {
	if sigma >= n && n > 0 {
		return fmt.Sprintf("SELL-%d-∞", c)
	}
	if sigma < 1 {
		sigma = 1
	}
	return fmt.Sprintf("SELL-%d-%d", c, sigma)
}

// SELLName returns the canonical SELL-C-σ name of this layout
// ("SELL-32-∞", "SELL-8-256"). Name() keeps the historical
// "sliced-ELL"/"sliced-ELL-sorted" identifiers that label plans and
// telemetry; this is the paper-facing parameterized name.
func (s *SlicedELL[T]) SELLName() string { return SELLName(s.C, s.SortWindow, s.N) }

// ZeroPadding returns the zero-padding overhead β = stored/nnz − 1:
// the fraction of stored value slots that are padding. β is the
// quantity σ exists to shrink — §II-A's data-reduction table reports
// 1/(1+β) relative to the respective dense-chunk baseline.
func (s *SlicedELL[T]) ZeroPadding() float64 { return ZeroPadding[T](s) }

// ZeroPadding computes β = stored/nnz − 1 for any format; 0 for
// padding-free formats such as CRS and CMRS.
func ZeroPadding[T matrix.Float](f Format[T]) float64 {
	nnz := f.NonZeros()
	if nnz == 0 {
		return 0
	}
	return float64(f.StoredElems())/float64(nnz) - 1
}

// ChunkOccupancy returns nnz/stored = 1/(1+β): the fraction of stored
// slots holding genuine non-zeros (CMRS's "chunk occupancy" measure,
// 1.0 for padding-free formats).
func ChunkOccupancy[T matrix.Float](f Format[T]) float64 {
	stored := f.StoredElems()
	if stored == 0 {
		return 1
	}
	return float64(f.NonZeros()) / float64(stored)
}

// EstimateBeta predicts the zero-padding overhead β of a SELL-C-σ
// layout from row lengths alone, without building the matrix: it
// replays the conversion's window clamping and windowed sort on the
// length array and sums per-slice padded rectangles. The tuner's
// Eq. 1 pruning pass calls this for every (C, σ) grid cell, so only
// surviving cells pay for a real conversion.
func EstimateBeta(lens []int, c, sigma int) float64 {
	n := len(lens)
	if n == 0 || c < 1 {
		return 0
	}
	// Mirror NewSlicedELLWith's clamping so the estimate is exact.
	if sigma < 1 {
		sigma = 1
	}
	if sigma > 1 && sigma < n && sigma%c != 0 {
		sigma = ((sigma + c - 1) / c) * c
	}
	if sigma > n {
		sigma = n
	}
	maxLen := 0
	var nnz int64
	for _, l := range lens {
		nnz += int64(l)
		if l > maxLen {
			maxLen = l
		}
	}
	if nnz == 0 {
		return 0
	}
	sorted := lens
	if sigma > 1 {
		perm := matrix.Identity(n)
		count := make([]int, maxLen+2)
		for lo := 0; lo < n; lo += sigma {
			matrix.SortRangeByLengthDesc(lens, lo, min(lo+sigma, n), perm, count)
		}
		sorted = make([]int, n)
		for i, p := range perm {
			sorted[i] = lens[p]
		}
	}
	var stored int64
	for lo := 0; lo < n; lo += c {
		sliceMax := 0
		for i := lo; i < lo+c && i < n; i++ {
			if sorted[i] > sliceMax {
				sliceMax = sorted[i]
			}
		}
		stored += int64(sliceMax) * int64(c)
	}
	return float64(stored)/float64(nnz) - 1
}
