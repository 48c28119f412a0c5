package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"pjds/internal/core"
	"pjds/internal/hostkernel"
	"pjds/internal/matrix"
	"pjds/internal/service"
	"pjds/internal/solver"
)

// vecSeeds is how many distinct request vectors a workload sends per
// matrix; the reference digest of each is computed before any timed
// phase.
const vecSeeds = 8

// solveTol is the tolerance of every service solve request. It is far
// below what max_iter steps reach, so each request runs exactly its
// max_iter iterations and does the same work.
const solveTol = 1e-14

// input is one matrix a workload feeds the program: its MatrixMarket
// bytes (what the program receives) and the matrix they encode (what
// the references are computed from, outside any timed phase).
type input struct {
	name string
	mm   []byte
	csr  *matrix.CSR[float64]
	spd  bool // CG applies: solves are sent only to SPD inputs

	// Reference digests by request vector seed, computed on first use
	// from the workload goroutine only.
	naive map[uint64]string    // naive CRS, original basis (library path)
	perm  map[uint64]string    // naive CRS over PAPᵀ (service path)
	solve map[[2]uint64]string // host CG on the permuted operator, by (seed, max_iter)
	pb    *permutation
	op    *solver.PermutedPJDS
}

func (in *input) nnz() int64 { return int64(in.csr.Nnz()) }

// marketBytes renders m exactly as matrix.WriteMatrixMarket does
// (coordinate real general, 1-based, %.17g values), without the
// per-entry formatting overhead, so large inputs are cheap to make.
func marketBytes(m *matrix.CSR[float64]) []byte {
	buf := make([]byte, 0, 64+m.Nnz()*24)
	buf = append(buf, "%%MatrixMarket matrix coordinate real general\n"...)
	buf = fmt.Appendf(buf, "%d %d %d\n", m.NRows, m.NCols, m.Nnz())
	for i := 0; i < m.NRows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			buf = strconv.AppendInt(buf, int64(i+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(c)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, vals[k], 'g', 17, 64)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// newInput keeps m's MatrixMarket bytes and m itself outside the Go
// heap, for the life of the process.
func newInput(name string, m *matrix.CSR[float64], spd bool) *input {
	off := &matrix.CSR[float64]{NRows: m.NRows, NCols: m.NCols,
		RowPtr: offHeap(m.RowPtr), ColIdx: offHeap(m.ColIdx), Val: offHeap(m.Val)}
	return &input{
		name: name, mm: offHeap(marketBytes(m)), csr: off, spd: spd,
		naive: map[uint64]string{}, perm: map[uint64]string{}, solve: map[[2]uint64]string{},
	}
}

// offHeap copies s into mapped memory. The inputs are made before any
// timed phase, so failing to map them ends the run there.
func offHeap[T any](s []T) []T {
	out, err := mapped[T](len(s))
	if err != nil {
		panic(fmt.Sprintf("mapping %d input elements: %v", len(s), err))
	}
	copy(out, s)
	return out
}

// naiveRef is the library-path reference: the sequential CRS kernel
// on the matrix as given, for request vector seed s.
func (in *input) naiveRef(s uint64) (string, error) {
	if d, ok := in.naive[s]; ok {
		return d, nil
	}
	y, err := naiveMul(in.csr, service.SeedVector(in.csr.NRows, s))
	if err != nil {
		return "", err
	}
	in.naive[s] = service.DigestVector(y)
	return in.naive[s], nil
}

// permRef is the service-path reference: the naive CRS kernel over
// PAPᵀ, the symmetric row-length permutation the service stores a
// matrix under. Its bits differ from naiveRef's, because permuting
// reorders each row's summation; it is also checked against the
// original-basis product to a relative 1e-12, so the service path is
// known to compute A·x.
func (in *input) permRef(s uint64) (string, error) {
	if d, ok := in.perm[s]; ok {
		return d, nil
	}
	if in.pb == nil {
		p := matrix.SortRowsByLengthDesc(in.csr)
		in.pb = &permutation{perm: p, pm: matrix.PermuteSymmetric(in.csr, p)}
	}
	x := service.SeedVector(in.csr.NRows, s)
	y, err := naiveMul(in.csr, x)
	if err != nil {
		return "", err
	}
	yp, err := in.pb.apply(x)
	if err != nil {
		return "", err
	}
	if rel := maxRelDiff(yp, y); rel > 1e-12 {
		return "", fmt.Errorf("%s: permuted-basis product differs from A·x by %g", in.name, rel)
	}
	in.perm[s] = service.DigestVector(yp)
	return in.perm[s], nil
}

// solveRef is the solve reference: CG on the host permuted operator
// (solver.PermutedPJDS, as the service builds it) with the request's
// tolerance and iteration budget; hitting the budget is a result.
func (in *input) solveRef(s uint64, maxIter int) (string, error) {
	key := [2]uint64{s, uint64(maxIter)}
	if d, ok := in.solve[key]; ok {
		return d, nil
	}
	if in.op == nil {
		op, err := solver.NewPermutedPJDS(in.csr, core.Options{})
		if err != nil {
			return "", err
		}
		in.op = op
	}
	n := in.csr.NRows
	bp := in.op.Enter(make([]float64, n), service.SeedVector(n, s))
	xp := make([]float64, n)
	if _, err := solver.CG(in.op, xp, bp, solveTol, maxIter); err != nil && !errors.Is(err, solver.ErrNotConverged) {
		return "", err
	}
	in.solve[key] = service.DigestVector(in.op.Leave(make([]float64, n), xp))
	return in.solve[key], nil
}

func naiveMul(m *matrix.CSR[float64], x []float64) ([]float64, error) {
	y := make([]float64, m.NRows)
	return y, hostkernel.NewNaive(m, hostkernel.Options{}).MulVec(y, x)
}

// permutation is PAPᵀ with its row-length sort P, rebuilt from the
// public functions solver.NewPermutedPJDS uses.
type permutation struct {
	perm matrix.Perm
	pm   *matrix.CSR[float64]
}

// apply computes y = A·x through the naive kernel over PAPᵀ.
func (p *permutation) apply(x []float64) ([]float64, error) {
	n := len(x)
	yp, err := naiveMul(p.pm, matrix.Gather(make([]float64, n), x, p.perm))
	if err != nil {
		return nil, err
	}
	return matrix.Scatter(make([]float64, n), yp, p.perm), nil
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if s := math.Abs(b[i]); s > 1 {
			d /= s
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// splitmix64 drives every seeded choice of the request schedules.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
