package hostkernel

import (
	"fmt"
	"runtime"

	"pjds/internal/formats"
	"pjds/internal/matrix"
	"pjds/internal/par"
	"pjds/internal/profiles"
)

// SELL is the SELL-C-σ-style chunked host kernel (Kreutzer et al.,
// arXiv:1307.6209) over the repository's SlicedELL layout: rows are
// sorted by descending length inside windows of σ rows and stored in
// slices of C consecutive rows padded to the slice maximum. The
// kernel processes a slice's C rows together — the chunk height plays
// the role of the SIMD width on a wide-vector machine, so C lanes
// share one loop counter and one stream of column-major slice storage.
//
// Bit-identity with the naive reference holds because each lane keeps
// its own accumulator, a lane's entries appear in the row's stored
// column order, and the main loop only covers the slice's common
// prefix (min row length): the ragged remainders run per lane, so
// padding entries are never touched and cannot perturb the sum (an
// added 0·x would still flip a -0 sum to +0).
type SELL struct {
	s      *formats.SlicedELL[float64]
	bounds []int       // per-worker slice ranges, nnz-balanced
	acc    [][]float64 // per-worker lane accumulators for the generic-C lockstep
	pool   *par.Pool
	mt     *meter

	y, x  []float64
	add   bool
	runFn func(w int)
}

// NewSELL converts m into a SlicedELL with chunk height C
// (0 = DefaultC) and sorting window σ (0 = DefaultSigma) and builds
// the kernel over it.
func NewSELL(m *matrix.CSR[float64], opt Options) (*SELL, error) {
	c := opt.C
	if c == 0 {
		c = DefaultC
	}
	sigma := opt.Sigma
	if sigma == 0 {
		sigma = DefaultSigma
	}
	s, err := formats.NewSlicedELLWith(m, c, sigma, matrix.ConvertOptions{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	workers := par.Resolve(opt.Workers)
	nSlices := len(s.SliceLen)
	if workers > nSlices {
		workers = nSlices
	}
	if workers < 1 {
		workers = 1
	}
	// nnz-balanced chunking at slice granularity: a prefix sum of true
	// per-slice non-zeros feeds the shared Chunks schedule.
	prefix := make([]int, nSlices+1)
	for sl := 0; sl < nSlices; sl++ {
		nnz := 0
		for lane := 0; lane < c; lane++ {
			nnz += int(s.RowLen[sl*c+lane])
		}
		prefix[sl+1] = prefix[sl] + nnz
	}
	k := &SELL{
		s:      s,
		bounds: Chunks(prefix, workers),
		acc:    make([][]float64, workers),
		mt:     newMeter(opt.Metrics, string(KindSELL), int64(s.NnzV), s.N, s.NCols),
	}
	for w := range k.acc {
		k.acc[w] = make([]float64, c)
	}
	k.runFn = k.run
	if workers > 1 {
		k.pool = par.NewPool(workers)
		k.pool.Label(profiles.Ctx(profiles.PhaseHost, "kernel", string(KindSELL), "format", "sell-c-sigma"))
		runtime.SetFinalizer(k, (*SELL).Close)
	}
	return k, nil
}

// Layout exposes the underlying SlicedELL (reporting: padding
// overhead, footprint).
func (k *SELL) Layout() *formats.SlicedELL[float64] { return k.s }

// Name implements Kernel.
func (k *SELL) Name() string { return string(KindSELL) }

// Rows implements Kernel.
func (k *SELL) Rows() int { return k.s.N }

// Cols implements Kernel.
func (k *SELL) Cols() int { return k.s.NCols }

// MulVec implements Kernel: y = A·x in the original basis (each
// stored row i writes y[Perm[i]], so no separate scatter pass runs).
func (k *SELL) MulVec(y, x []float64) error { return k.apply(y, x, false) }

// MulVecAdd implements Kernel.
func (k *SELL) MulVecAdd(y, x []float64) error { return k.apply(y, x, true) }

func (k *SELL) apply(y, x []float64, add bool) error {
	if len(x) != k.s.NCols || len(y) != k.s.N {
		return fmt.Errorf("hostkernel: sell |x|=%d |y|=%d on %dx%d: %w", len(x), len(y), k.s.N, k.s.NCols, matrix.ErrShape)
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

// run executes worker w's slice range. Slices are units, so every
// stored row — and through the bijective Perm every output element —
// is written by exactly one worker.
func (k *SELL) run(w int) {
	lo, hi := k.bounds[w], k.bounds[w+1]
	switch k.s.C {
	case 4:
		for sl := lo; sl < hi; sl++ {
			k.slice4(sl)
		}
	case 8:
		for sl := lo; sl < hi; sl++ {
			k.slice8(sl)
		}
	default:
		acc := k.acc[w]
		for sl := lo; sl < hi; sl++ {
			k.sliceLockstep(sl, acc)
		}
	}
}

// laneTail finishes one lane's ragged remainder [from, to).
func laneTail(sum float64, v []float64, c []int32, x []float64, from, to, stride, lane int) float64 {
	for j := from; j < to; j++ {
		at := j*stride + lane
		sum += v[at] * x[c[at]]
	}
	return sum
}

// slice4 processes one C=4 slice: four lane accumulators advance in
// lockstep over the common prefix, then each lane finishes its ragged
// tail alone.
func (k *SELL) slice4(sl int) {
	s, x := k.s, k.x
	r0 := sl * 4
	l0, l1, l2, l3 := int(s.RowLen[r0]), int(s.RowLen[r0+1]), int(s.RowLen[r0+2]), int(s.RowLen[r0+3])
	min := l0
	if l1 < min {
		min = l1
	}
	if l2 < min {
		min = l2
	}
	if l3 < min {
		min = l3
	}
	v := s.Val[s.SliceStart[sl]:s.SliceStart[sl+1]]
	c := s.ColIdx[s.SliceStart[sl]:s.SliceStart[sl+1]]
	var s0, s1, s2, s3 float64
	off := 0
	for j := 0; j < min; j++ {
		s0 += v[off] * x[c[off]]
		s1 += v[off+1] * x[c[off+1]]
		s2 += v[off+2] * x[c[off+2]]
		s3 += v[off+3] * x[c[off+3]]
		off += 4
	}
	s0 = laneTail(s0, v, c, x, min, l0, 4, 0)
	s1 = laneTail(s1, v, c, x, min, l1, 4, 1)
	s2 = laneTail(s2, v, c, x, min, l2, 4, 2)
	s3 = laneTail(s3, v, c, x, min, l3, 4, 3)
	k.write(r0, s0, s1, s2, s3)
}

// slice8 is the C=8 variant of slice4.
func (k *SELL) slice8(sl int) {
	s, x := k.s, k.x
	r0 := sl * 8
	var l [8]int
	min := int(^uint(0) >> 1)
	for lane := 0; lane < 8; lane++ {
		l[lane] = int(s.RowLen[r0+lane])
		if l[lane] < min {
			min = l[lane]
		}
	}
	v := s.Val[s.SliceStart[sl]:s.SliceStart[sl+1]]
	c := s.ColIdx[s.SliceStart[sl]:s.SliceStart[sl+1]]
	var acc [8]float64
	off := 0
	for j := 0; j < min; j++ {
		acc[0] += v[off] * x[c[off]]
		acc[1] += v[off+1] * x[c[off+1]]
		acc[2] += v[off+2] * x[c[off+2]]
		acc[3] += v[off+3] * x[c[off+3]]
		acc[4] += v[off+4] * x[c[off+4]]
		acc[5] += v[off+5] * x[c[off+5]]
		acc[6] += v[off+6] * x[c[off+6]]
		acc[7] += v[off+7] * x[c[off+7]]
		off += 8
	}
	for lane := 0; lane < 8; lane++ {
		acc[lane] = laneTail(acc[lane], v, c, x, min, l[lane], 8, lane)
	}
	y, p := k.y, k.s.Perm
	for lane := 0; lane < 8; lane++ {
		i := r0 + lane
		if i >= k.s.N {
			break
		}
		if k.add {
			y[p[i]] += acc[lane]
		} else {
			y[p[i]] = acc[lane]
		}
	}
}

// sliceLockstep is the arbitrary-C analogue of slice4/slice8: the
// worker's preallocated lane accumulators advance together over the
// slice's common prefix (one shared loop counter, unit-stride walk of
// the column-major storage), then each lane finishes its ragged tail
// alone. Per-lane accumulation order is identical to the row-by-row
// walk, so results stay bit-identical at every C.
func (k *SELL) sliceLockstep(sl int, acc []float64) {
	s, x := k.s, k.x
	C := s.C
	r0 := sl * C
	min := int(s.RowLen[r0])
	for lane := 1; lane < C; lane++ {
		if l := int(s.RowLen[r0+lane]); l < min {
			min = l
		}
	}
	v := s.Val[s.SliceStart[sl]:s.SliceStart[sl+1]]
	c := s.ColIdx[s.SliceStart[sl]:s.SliceStart[sl+1]]
	acc = acc[:C]
	for lane := range acc {
		acc[lane] = 0
	}
	off := 0
	for j := 0; j < min; j++ {
		for lane := 0; lane < C; lane++ {
			acc[lane] += v[off+lane] * x[c[off+lane]]
		}
		off += C
	}
	y, p := k.y, s.Perm
	for lane := 0; lane < C; lane++ {
		i := r0 + lane
		if i >= s.N {
			break
		}
		sum := laneTail(acc[lane], v, c, x, min, int(s.RowLen[i]), C, lane)
		if k.add {
			y[p[i]] += sum
		} else {
			y[p[i]] = sum
		}
	}
}

// write stores four lane results, skipping phantom lanes past the
// last real row.
func (k *SELL) write(r0 int, s0, s1, s2, s3 float64) {
	y, p, n := k.y, k.s.Perm, k.s.N
	sums := [4]float64{s0, s1, s2, s3}
	for lane := 0; lane < 4; lane++ {
		i := r0 + lane
		if i >= n {
			break
		}
		if k.add {
			y[p[i]] += sums[lane]
		} else {
			y[p[i]] = sums[lane]
		}
	}
}

// Close implements Kernel: releases the worker pool.
func (k *SELL) Close() {
	if k.pool != nil {
		runtime.SetFinalizer(k, nil)
		k.pool.Close()
	}
}
