// Package hostkernel is the high-performance CPU spMVM layer: the
// host execution path of the solver, the ECC-downgrade path of the
// service, and the CPU ranks of the distributed engine all route
// through it. The GPU numbers of the paper are simulator-modeled, but
// these kernels burn real cycles, so they get the same treatment a
// device kernel would: lockstep rows, bounds-check elimination,
// nnz-balanced static partitioning, and a zero-alloc steady state.
//
// Four kernels implement the Kernel interface, one per storage layout:
//
//   - naive: the sequential CRS reference (exactly matrix.CSR.MulVec),
//     kept for cross-checks;
//   - blocked: CRS with rows split into nnz-balanced contiguous
//     chunks (one per worker) and a bounds-check-free two-row-lockstep
//     inner loop;
//   - sell: a SELL-C-σ-style kernel over the SlicedELL layout
//     (Kreutzer et al., arXiv:1307.6209): rows are sorted by length in
//     windows of σ and processed C at a time, the chunk height playing
//     the role of the SIMD width;
//   - cmrs: the compressed multi-row storage kernel (Koza et al.,
//     arXiv:1203.2946): strips of consecutive rows share one
//     padding-free CSR-ordered element stream with per-element
//     row-in-strip routing, trading SELL's zero-padding for one
//     metadata byte per non-zero.
//
// PJDSKernel, the fifth, runs the pJDS layout in its permuted basis and
// is built from a core.PJDS rather than through New.
//
// Every kernel is bit-identical to the naive reference at any worker
// count: floating-point sums are accumulated per row in stored column
// order with a single accumulator, parallelism only ever assigns whole
// rows to workers, and Go never reassociates floating-point expressions.
package hostkernel

import (
	"fmt"

	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// Kernel is one host spMVM execution engine over a fixed matrix.
// MulVec computes y = A·x and MulVecAdd computes y += A·x (the
// accumulate variant the split local/non-local distributed kernels
// use). Both are bit-identical to the matrix.CSR reference kernels.
// Close releases the worker pool; kernels also carry a finalizer, so
// dropping the last reference without Close only delays the release
// to the next GC.
type Kernel interface {
	Name() string
	Rows() int
	Cols() int
	MulVec(y, x []float64) error
	MulVecAdd(y, x []float64) error
	Close()
}

// Kind names a host kernel implementation.
type Kind string

const (
	// KindNaive is the sequential CRS reference kernel.
	KindNaive Kind = "naive"
	// KindBlocked is the row-chunked, two-row-lockstep CRS kernel.
	KindBlocked Kind = "blocked"
	// KindSELL is the SELL-C-σ-style chunked kernel.
	KindSELL Kind = "sell"
	// KindCMRS is the compressed multi-row storage kernel (Koza et
	// al., arXiv:1203.2946): strips of consecutive rows share one
	// padding-free CSR-ordered element stream, with a per-element
	// row-in-strip byte routing products to the right accumulator.
	KindCMRS Kind = "cmrs"
)

// ParseKind resolves a -host-kernel flag value.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindNaive, KindBlocked, KindSELL, KindCMRS:
		return Kind(s), nil
	}
	return "", fmt.Errorf("hostkernel: unknown kind %q (want naive, blocked, sell, or cmrs)", s)
}

// Kinds lists all kernel kinds in deterministic report order.
func Kinds() []Kind { return []Kind{KindNaive, KindBlocked, KindSELL, KindCMRS} }

// DefaultC is the SELL chunk height C when the caller does not set
// one.
const DefaultC = 4

// DefaultSigma is the SELL sorting window σ when the caller does not
// set one: local enough to keep the row permutation cache-friendly,
// wide enough to remove most padding.
const DefaultSigma = 256

// Options configure kernel construction. The zero value selects the
// process-default worker count, the default SELL geometry, and no
// telemetry.
type Options struct {
	// Workers is the number of row-partition workers; ≤ 0 selects
	// par.Default(). Workers == 1 runs inline with no pool goroutines.
	Workers int
	// C is the SELL chunk height (0 = DefaultC). The CMRS kernel reuses
	// it as the strip height (0 = formats.DefaultStripHeight).
	C int
	// Sigma is the SELL sorting window σ (0 = DefaultSigma).
	Sigma int
	// Metrics, when non-nil, receives the host_kernel_* series
	// (gflops/GB/s gauges and bytes/applies counters, labelled by
	// kernel kind). Handles are resolved once at construction so the
	// steady state stays allocation-free.
	Metrics *telemetry.Registry
}

// New builds a kernel of the given kind over m.
func New(kind Kind, m *matrix.CSR[float64], opt Options) (Kernel, error) {
	switch kind {
	case KindNaive:
		return NewNaive(m, opt), nil
	case KindBlocked:
		return NewBlockedCRS(m, opt), nil
	case KindSELL:
		return NewSELL(m, opt)
	case KindCMRS:
		return NewCMRSKernel(m, opt)
	}
	return nil, fmt.Errorf("hostkernel: unknown kind %q", kind)
}

// MulVec is the one-shot convenience: build the blocked kernel, apply
// it once, release it. Callers applying the operator repeatedly should
// hold a Kernel instead.
func MulVec(m *matrix.CSR[float64], y, x []float64) error {
	k := NewBlockedCRS(m, Options{})
	defer k.Close()
	return k.MulVec(y, x)
}

// Chunks returns workers+1 row boundaries splitting a CSR row-pointer
// array into contiguous chunks of roughly equal non-zero count — the
// static schedule every parallel host kernel shares. Degenerate
// inputs are well-defined: workers < 1 is clamped to 1, workers >
// rows yields trailing empty chunks, rows whose non-zeros dwarf the
// per-worker target (all nnz in one row) simply make their chunk
// heavy and later chunks empty, and empty tail rows land in the last
// chunk. Boundaries are non-decreasing, bounds[0] = 0 and
// bounds[workers] = rows always hold, so every row belongs to exactly
// one chunk and parallel results stay bit-identical to sequential.
func Chunks(rowPtr []int, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	rows := len(rowPtr) - 1
	if rows < 0 {
		rows = 0
	}
	bounds := make([]int, workers+1)
	if rows == 0 {
		return bounds
	}
	total := rowPtr[rows] - rowPtr[0]
	row := 0
	for w := 1; w < workers; w++ {
		target := rowPtr[0] + total*w/workers
		for row < rows && rowPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	bounds[workers] = rows
	return bounds
}
