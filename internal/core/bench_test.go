package core

import (
	"fmt"
	"testing"

	"pjds/internal/matgen"
	"pjds/internal/matrix"
)

func benchSetup(b *testing.B) (*PJDS[float64], []float64, []float64) {
	b.Helper()
	m := randomCSR(3000, 3000, 0.01, 1)
	p, err := NewPJDS(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.NCols)
	for i := range x {
		x[i] = float64(i % 13)
	}
	return p, make([]float64, p.NPad), x
}

// BenchmarkNewPJDS measures the one-off conversion cost (sort + pad +
// column assembly), which iterative solvers amortize over the run.
func BenchmarkNewPJDS(b *testing.B) {
	m := randomCSR(3000, 3000, 0.01, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPJDS(m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPJDSWorkers measures the parallel build (histogram sort
// + block padding + column fill) across worker counts, plus the
// arena-backed sweep variant.
func BenchmarkNewPJDSWorkers(b *testing.B) {
	m := randomCSR(3000, 3000, 0.01, 1)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := Options{Convert: matrix.ConvertOptions{Workers: w, ForceParallel: true}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewPJDS(m, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("workers=4/arena", func(b *testing.B) {
		arena := matrix.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arena.Reset()
			if _, err := NewPJDS(m, Options{Convert: matrix.ConvertOptions{Workers: 4, Arena: arena, ForceParallel: true}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPJDSMulVecPermuted is the hot loop of Listing 2 on the
// host (functional kernel, no device timing).
func BenchmarkPJDSMulVecPermuted(b *testing.B) {
	p, yp, x := benchSetup(b)
	b.SetBytes(int64(p.Nnz) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MulVecPermuted(yp, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPJDSMulVec includes the scatter back to the original basis
// (what naive per-call use costs vs staying permuted, §II-A).
func BenchmarkPJDSMulVec(b *testing.B) {
	p, _, x := benchSetup(b)
	y := make([]float64, p.N)
	b.SetBytes(int64(p.Nnz) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MulVec(y, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPJDSMulRows runs the one pJDS row body over the three
// service-resident shapes of the serve-mixed benchmark workload: a
// 5-point stencil (constant row length), sAMG and DLR1 (ragged).
func BenchmarkPJDSMulRows(b *testing.B) {
	for _, c := range []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"stencil2d", matgen.Stencil2D(96, 96)},
		{"samg", matgen.SAMG(0.002, 1)},
		{"dlr1", matgen.DLR1(0.0012, 1)},
	} {
		p, err := NewPJDS(c.m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, p.NCols)
		for i := range x {
			x[i] = 0.5 + float64(i%13)/13
		}
		yp := make([]float64, p.N)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(p.Nnz) * 12)
			for b.Loop() {
				p.MulRows(yp, x, 0, p.N, false)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.Nnz), "ns/nnz")
		})
	}
}
