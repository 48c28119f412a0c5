package matgen

import (
	"math"
	"math/rand"

	"pjds/internal/matrix"
)

// Generic generators for examples, tests and ablations.

// Banded generates an n×n matrix whose rows have between minLen and
// maxLen entries placed within ±width of the diagonal (wrapping at
// the edges), always including the diagonal. Strong RHS locality.
func Banded(n, minLen, maxLen, width int, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(maxLen+minLen)/2)
	s := newScratch()
	for i := 0; i < n; i++ {
		s.reset()
		l := minLen + rng.Intn(maxLen-minLen+1)
		s.add(i, n, 2+rng.Float64())
		if rem := l - 1; rem > 0 {
			s.bandFill(rng, i, n, rem, width)
		}
		s.emit(b)
	}
	return b.finish()
}

// Random generates an n×n matrix with uniformly random column
// positions — the worst case for RHS cache reuse (α → 1).
func Random(n, minLen, maxLen int, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(maxLen+minLen)/2)
	s := newScratch()
	for i := 0; i < n; i++ {
		s.reset()
		l := minLen + rng.Intn(maxLen-minLen+1)
		s.add(i, n, 2+rng.Float64())
		for len(s.cols) < l {
			s.add(rng.Intn(n), n, symValue(rng))
		}
		s.emit(b)
	}
	return b.finish()
}

// PowerLaw generates an n×n matrix whose row lengths follow a
// truncated power law: a few very long rows over a mass of short ones
// — the regime where pJDS crushes ELLPACK's footprint (§II-A's
// extreme-case analysis).
func PowerLaw(n, minLen, maxLen int, exponent float64, seed int64) *matrix.CSR[float64] {
	if maxLen < minLen {
		minLen, maxLen = maxLen, minLen
	}
	if minLen < 1 {
		minLen = 1
	}
	if exponent <= 0 {
		exponent = 2
	}
	rng := rand.New(rand.NewSource(seed))
	b := newBuilder(n, int64(n)*int64(minLen)*3)
	s := newScratch()
	span := float64(maxLen - minLen)
	for i := 0; i < n; i++ {
		s.reset()
		u := rng.Float64()
		l := minLen + int(span*math.Pow(u, exponent))
		s.add(i, n, 2+rng.Float64())
		for len(s.cols) < l {
			s.add(rng.Intn(n), n, symValue(rng))
		}
		s.emit(b)
	}
	return b.finish()
}

// Stencil3D generates the 7-point Laplacian on an nx×ny×nz grid —
// the 3D analogue used for volume problems (SPD, constant interior
// row length 7).
func Stencil3D(nx, ny, nz int) *matrix.CSR[float64] {
	n := nx * ny * nz
	b := newBuilder(n, int64(n)*7)
	cols := make([]int32, 0, 7)
	vals := make([]float64, 0, 7)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				cols = cols[:0]
				vals = vals[:0]
				add := func(c int, v float64) {
					cols = append(cols, int32(c))
					vals = append(vals, v)
				}
				i := idx(x, y, z)
				if z > 0 {
					add(idx(x, y, z-1), -1)
				}
				if y > 0 {
					add(idx(x, y-1, z), -1)
				}
				if x > 0 {
					add(i-1, -1)
				}
				add(i, 6)
				if x < nx-1 {
					add(i+1, -1)
				}
				if y < ny-1 {
					add(idx(x, y+1, z), -1)
				}
				if z < nz-1 {
					add(idx(x, y, z+1), -1)
				}
				b.addRow(cols, vals)
			}
		}
	}
	return b.finish()
}

// Tridiagonal generates the classic (-1, 2, -1) operator — the
// simplest SPD system with a known spectrum, handy for solver tests.
func Tridiagonal(n int) *matrix.CSR[float64] {
	b := newBuilder(n, int64(n)*3)
	cols := make([]int32, 0, 3)
	vals := make([]float64, 0, 3)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		vals = vals[:0]
		if i > 0 {
			cols = append(cols, int32(i-1))
			vals = append(vals, -1)
		}
		cols = append(cols, int32(i))
		vals = append(vals, 2)
		if i < n-1 {
			cols = append(cols, int32(i+1))
			vals = append(vals, -1)
		}
		b.addRow(cols, vals)
	}
	return b.finish()
}

// RMAT generates a scale-free graph adjacency matrix by recursive
// quadrant subdivision (Chakrabarti et al.), the standard stand-in for
// social/web graphs: power-law degrees and no locality whatsoever —
// the hardest case for every ELLPACK descendant and a stress test for
// pJDS's sorting. Self-loops are added on the diagonal so iterative
// methods stay well-defined.
func RMAT(scaleExp int, edgeFactor int, seed int64) *matrix.CSR[float64] {
	if scaleExp < 1 {
		scaleExp = 1
	}
	if edgeFactor < 1 {
		edgeFactor = 8
	}
	n := 1 << scaleExp
	rng := rand.New(rand.NewSource(seed ^ 0x524d4154))
	const a, b, c = 0.57, 0.19, 0.19 // standard Graph500 parameters
	coo := matrix.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(edgeFactor)) // dominant diagonal
	}
	for e := 0; e < n*edgeFactor; e++ {
		row, col := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			u := rng.Float64()
			switch {
			case u < a:
			case u < a+b:
				col |= bit
			case u < a+b+c:
				row |= bit
			default:
				row |= bit
				col |= bit
			}
		}
		coo.Add(row, col, symValue(rng))
	}
	return coo.ToCSR()
}

// Stencil2D generates the 5-point Laplacian on a nx×ny grid — the
// constant-row-length case where ELLPACK and pJDS coincide, and a
// classic CG/solver test operator (symmetric positive definite).
func Stencil2D(nx, ny int) *matrix.CSR[float64] {
	n := nx * ny
	b := newBuilder(n, int64(n)*5)
	cols := make([]int32, 0, 5)
	vals := make([]float64, 0, 5)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			cols = cols[:0]
			vals = vals[:0]
			i := y*nx + x
			add := func(c int, v float64) {
				cols = append(cols, int32(c))
				vals = append(vals, v)
			}
			if y > 0 {
				add(i-nx, -1)
			}
			if x > 0 {
				add(i-1, -1)
			}
			add(i, 4)
			if x < nx-1 {
				add(i+1, -1)
			}
			if y < ny-1 {
				add(i+nx, -1)
			}
			b.addRow(cols, vals)
		}
	}
	return b.finish()
}

// EdgeShapes returns the shapes a row kernel is most likely to get
// wrong, by name: empty rows both interior and trailing ("empty-rows":
// a banded 77×77 with every fifth row and the last six emptied), a 1×1
// matrix ("n=1"), one dense row among the short rows of a tridiagonal
// ("dense-row"), a ragged power-law matrix whose 203 rows leave a
// partial trailing warp ("ragged-203") and a matrix with no entries
// ("all-empty").
func EdgeShapes() map[string]*matrix.CSR[float64] {
	band := Banded(77, 1, 9, 6, 3)
	holes := matrix.NewCOO[float64](77, 77)
	for i := 0; i < 71; i++ {
		if i%5 == 2 {
			continue
		}
		cols, vals := band.Row(i)
		for k, c := range cols {
			holes.Add(i, int(c), vals[k])
		}
	}
	tri := Tridiagonal(45)
	dense := matrix.NewCOO[float64](45, 45)
	for i := 0; i < 45; i++ {
		if i == 9 {
			for j := 0; j < 45; j++ {
				dense.Add(i, j, 1+float64(j)/8)
			}
			continue
		}
		cols, vals := tri.Row(i)
		for k, c := range cols {
			dense.Add(i, int(c), vals[k])
		}
	}
	return map[string]*matrix.CSR[float64]{
		"empty-rows": holes.ToCSR(),
		"n=1":        Tridiagonal(1),
		"dense-row":  dense.ToCSR(),
		"ragged-203": PowerLaw(203, 1, 50, 0.6, 5),
		"all-empty":  matrix.NewCOO[float64](40, 40).ToCSR(),
	}
}
