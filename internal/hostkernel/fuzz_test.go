package hostkernel

import (
	"math"
	"testing"

	"pjds/internal/matrix"
)

// FuzzHostKernels drives the blocked and SELL kernels with
// fuzzer-shaped matrices and geometry (worker count, chunk height,
// sorting window) and demands bit-identity
// with the naive CRS reference — the same cross-check discipline as
// the PR5 parallel-vs-sequential conversion fuzz.
func FuzzHostKernels(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(2), uint8(0), []byte{0x11, 0x22, 0x33})
	f.Add(uint8(1), uint8(1), uint8(7), uint8(1), []byte{})
	f.Add(uint8(64), uint8(3), uint8(4), uint8(9), []byte{0xff, 0x00, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, rows, cols, workers, geom uint8, pattern []byte) {
		n := int(rows)%64 + 1
		c := int(cols)%64 + 1
		w := int(workers)%9 + 1
		chunkH := int(geom)%7 + 1 // SELL C in [1, 7] exercises the generic path too
		sigma := int(geom)%48 + 1 // SELL σ
		coo := matrix.NewCOO[float64](n, c)
		for k, b := range pattern {
			if k >= 4*n {
				break
			}
			i := (k * 7 % n)
			j := int(b) % c
			coo.Add(i, j, float64(b)/16+0.25)
		}
		m := coo.ToCSR()
		x := make([]float64, c)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		ref := make([]float64, n)
		if err := m.MulVec(ref, x); err != nil {
			t.Fatal(err)
		}
		opt := Options{Workers: w, C: chunkH, Sigma: sigma}
		for _, kind := range []Kind{KindBlocked, KindSELL} {
			k, err := New(kind, m, opt)
			if err != nil {
				t.Fatalf("%s construction failed on valid input: %v", kind, err)
			}
			y := make([]float64, n)
			if err := k.MulVec(y, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%s (w=%d C=%d σ=%d): y[%d] = %v, reference %v",
						kind, w, chunkH, sigma, i, y[i], ref[i])
				}
			}
			seed := append([]float64(nil), ref...)
			want := make([]float64, n)
			copy(want, seed)
			if err := m.MulVecAdd(want, x); err != nil {
				t.Fatal(err)
			}
			copy(y, seed)
			if err := k.MulVecAdd(y, x); err != nil {
				t.Fatal(err)
			}
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s add: y[%d] = %v, reference %v", kind, i, y[i], want[i])
				}
			}
			k.Close()
		}
	})
}
