package core

import (
	"fmt"
	"math"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

// rowRanges returns [lo, hi) ranges of n rows whose ends fall on every
// residue mod 4, including empty and single-row ranges.
func rowRanges(n int) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, lo := range []int{0, 1, 2, 3, 4, 5, 7, 13} {
		for _, hi := range []int{lo, lo + 1, lo + 2, lo + 3, lo + 5, lo + 6, lo + 11, n - 3, n - 2, n - 1, n} {
			r := [2]int{lo, hi}
			if lo <= n && lo <= hi && hi <= n && !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// TestMulRowsBitIdentical checks MulRows on the matgen edge shapes,
// over ranges that are not multiples of 4, with and without accumulate, in both precisions and
// at several block heights, against a row-by-row reference that sums
// each original CSR row in its stored order. Rows outside the range
// must be left alone.
func TestMulRowsBitIdentical(t *testing.T) {
	for shape, m := range matgen.EdgeShapes() {
		for _, br := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("%s/br=%d/float64", shape, br), func(t *testing.T) {
				checkMulRows(t, m, br)
			})
			t.Run(fmt.Sprintf("%s/br=%d/float32", shape, br), func(t *testing.T) {
				checkMulRows(t, matrix.Convert[float32](m), br)
			})
		}
	}
}

func checkMulRows[T matrix.Float](t *testing.T, m *matrix.CSR[T], br int) {
	p, err := NewPJDS(m, Options{BlockHeight: br})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]T, m.NCols)
	for i := range x {
		x[i] = T(0.5 + float64(i%11)/3)
	}
	// ref[i] is sorted row i: original row Perm[i], summed in CSR order.
	ref := make([]T, p.N)
	for i := range ref {
		cols, vals := m.Row(p.Perm[i])
		var sum T
		for k, c := range cols {
			sum += vals[k] * x[c]
		}
		ref[i] = sum
	}
	for _, r := range rowRanges(p.N) {
		for _, acc := range []bool{false, true} {
			y := make([]T, p.N)
			want := make([]T, p.N)
			for i := range y {
				y[i] = T(1 / float64(i+3))
				want[i] = y[i]
				if i >= r[0] && i < r[1] {
					if acc {
						want[i] += ref[i]
					} else {
						want[i] = ref[i]
					}
				}
			}
			p.MulRows(y, x, r[0], r[1], acc)
			for i := range y {
				if !sameBits(y[i], want[i]) {
					t.Fatalf("rows [%d,%d) accumulate=%v: y[%d] = %v, want %v", r[0], r[1], acc, i, y[i], want[i])
				}
			}
		}
	}
}

// sameBits compares through float64, which represents every float32
// exactly (signed zeros included).
func sameBits[T matrix.Float](a, b T) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestMulRowsNeverReadsPadding poisons every padding slot: its value
// becomes NaN and its column index points at an x entry that is NaN
// and that no genuine entry reads. Any padding read would put a NaN
// into y.
func TestMulRowsNeverReadsPadding(t *testing.T) {
	src := matgen.PowerLaw(203, 1, 50, 0.6, 5)
	n := src.NRows
	coo := matrix.NewCOO[float64](n, n+1) // column n stays empty
	for i := 0; i < n; i++ {
		cols, vals := src.Row(i)
		for k, c := range cols {
			coo.Add(i, int(c), vals[k])
		}
	}
	p, err := NewPJDS(coo.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	for j := 0; j < p.MaxRowLen; j++ {
		for at := p.ColStart[j]; at < p.ColStart[j+1]; at++ {
			if i := int(at - p.ColStart[j]); j >= int(p.RowLen[i]) {
				p.Val[at] = math.NaN()
				p.ColIdx[at] = int32(n)
				poisoned++
			}
		}
	}
	if poisoned == 0 {
		t.Fatal("matrix has no padding to poison")
	}
	x := make([]float64, n+1)
	for i := range x {
		x[i] = 1 + float64(i%5)
	}
	x[n] = math.NaN()
	y := make([]float64, n)
	for _, r := range rowRanges(n) {
		p.MulRows(y, x, r[0], r[1], false)
		for i := r[0]; i < r[1]; i++ {
			if math.IsNaN(y[i]) {
				t.Fatalf("rows [%d,%d): y[%d] is NaN — a padding slot was read", r[0], r[1], i)
			}
		}
	}
}
