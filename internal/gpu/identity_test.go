package gpu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pjds/internal/core"
	"pjds/internal/formats"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/telemetry"
)

// layoutCase is one plan kernel over one matrix: run executes the
// device replay, host the layout's own host kernel, both in the
// layout's row basis; perm maps that basis to original rows (nil for
// the identity).
type layoutCase struct {
	name string
	run  func(y, x []float64, opt RunOptions) (*KernelStats, error)
	host func(y, x []float64) error
	perm matrix.Perm
}

func layoutCases(t *testing.T, m *matrix.CSR[float64]) []layoutCase {
	t.Helper()
	d := TeslaC2070()
	ell := formats.NewELLPACK(m)
	ellr := formats.NewELLPACKR(m)
	p, err := core.NewPJDS(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []layoutCase{
		{"ELLPACK", func(y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunELLPACK(d, ell, y, x, opt)
		}, ell.MulVec, nil},
		{"ELLPACK-R", func(y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunELLPACKR(d, ellr, y, x, opt)
		}, ellr.MulVec, nil},
		{"pJDS", func(y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunPJDS(d, p, y, x, opt)
		}, p.MulVecPermuted, p.Perm},
	}
	for _, cs := range [][2]int{{32, m.NRows}, {4, 1}, {8, 64}} {
		s, err := formats.NewSlicedELL(m, cs[0], cs[1])
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, layoutCase{s.SELLName(), func(y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunSlicedELL(d, s, y, x, opt)
		}, s.MulVecPermuted, s.Perm})
	}
	for _, h := range []int{4, 32} {
		c, err := formats.NewCMRS(m, h)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, layoutCase{fmt.Sprintf("CMRS-%d", h), func(y, x []float64, opt RunOptions) (*KernelStats, error) {
			return RunCMRS(d, c, y, x, opt)
		}, c.MulVec, nil})
	}
	return cases
}

// TestPlanKernelsBitIdentical is the differential contract of the
// plan replay: on every edge shape, at every worker count, with and
// without accumulation, the device y equals the layout's host kernel
// and the CRS reference (in the layout's row basis) bit for bit, and
// the KernelStats do not depend on the worker count.
func TestPlanKernelsBitIdentical(t *testing.T) {
	for shape, m := range matgen.EdgeShapes() {
		x := randVec(m.NCols, 5)
		crs := refMulVec(t, m, x)
		for _, lc := range layoutCases(t, m) {
			// Host kernel and CRS reference agree first.
			host := make([]float64, m.NRows)
			if err := lc.host(host, x); err != nil {
				t.Fatal(err)
			}
			for i := range host {
				want := crs[i]
				if lc.perm != nil {
					want = crs[lc.perm[i]]
				}
				if math.Float64bits(host[i]) != math.Float64bits(want) {
					t.Fatalf("%s/%s: host row %d = %x, CRS %x", shape, lc.name, i,
						math.Float64bits(host[i]), math.Float64bits(want))
				}
			}
			for _, acc := range []bool{false, true} {
				var base *KernelStats
				for _, w := range []int{1, 2, 4, 8} {
					y := make([]float64, m.NRows)
					want := make([]float64, m.NRows)
					for i := range y {
						y[i] = 1 / float64(i+3)
						want[i] = host[i]
						if acc {
							want[i] = y[i] + host[i]
						}
					}
					st, err := lc.run(y, x, RunOptions{
						Accumulate: acc, Workers: w,
						Plans: NewPlanCache(0), Metrics: telemetry.NewRegistry(),
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s/%s acc=%v workers=%d: y[%d] = %x, host %x", shape, lc.name, acc, w, i,
								math.Float64bits(y[i]), math.Float64bits(want[i]))
						}
					}
					if base == nil {
						base = st
					} else if !reflect.DeepEqual(st, base) {
						t.Fatalf("%s/%s acc=%v: stats at workers=%d differ from workers=1:\n%+v\n%+v",
							shape, lc.name, acc, w, st, base)
					}
				}
			}
		}
	}
}

// pinnedStats holds KernelStats (and a digest of the Prometheus
// exposition they publish) for the ragged-203 shape with Accumulate
// set, recorded from the per-warp counter implementation that preceded
// compile-time totals. Any drift in a modeled number shows up here.
var pinnedStats = map[string]struct {
	st   KernelStats
	prom string
}{
	"ELLPACK":   {KernelStats{Kernel: "ELLPACK", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 10976, WarpSteps: 343, Warps: 7, ActiveWarps: 7, BytesVal: 87808, BytesIdx: 43904, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 0, RHSProbes: 5186, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9901658310836868, Alpha: 0.03024014230655203, BytesTotal: 136672, CodeBalance: 10.129854728728136, MemSeconds: 2.4030241758241758e-05, ComputeSeconds: 4.260869565217392e-08, KernelSeconds: 3.1030241758241755e-05, GFlops: 0.43480163980406217, LaneEfficiency: 1, CoalescingEfficiency: 0.6146137026239067}, "6e67e34a2cdb959342f7b74b361906642f8c18e4189b6f02261649065a63bc59"},
	"ELLPACK-R": {KernelStats{Kernel: "ELLPACK-R", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 343, Warps: 7, ActiveWarps: 7, BytesVal: 80128, BytesIdx: 43904, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 896, RHSProbes: 4053, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9874167283493709, Alpha: 0.03024014230655203, BytesTotal: 129888, CodeBalance: 9.627038244885858, MemSeconds: 2.283745054945055e-05, ComputeSeconds: 4.260869565217392e-08, KernelSeconds: 2.983745054945055e-05, GFlops: 0.45218340547022545, LaneEfficiency: 0.6146137026239067, CoalescingEfficiency: 0.6526702786377709}, "e2730e4957ec4d9a5d5318d4e861d11385e763bdb4af1dbcba42c0257dc6aae8"},
	"pJDS":      {KernelStats{Kernel: "pJDS", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 236, Warps: 7, ActiveWarps: 7, BytesVal: 56832, BytesIdx: 30208, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 896, RHSProbes: 2738, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9813732651570489, Alpha: 0.03024014230655203, BytesTotal: 92896, CodeBalance: 6.885265342425141, MemSeconds: 1.6333362637362638e-05, ComputeSeconds: 2.9316770186335406e-08, KernelSeconds: 2.333336263736264e-05, GFlops: 0.5782278452397548, LaneEfficiency: 0.8932733050847458, CoalescingEfficiency: 0.9300551470588235}, "b12fc17d7627edf71c7e100a6c96fbde5ac5bd70c6742ef2baa3736e61d042fc"},
	"SELL-32-∞": {KernelStats{Kernel: "sliced-ELL-sorted", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 236, Warps: 7, ActiveWarps: 7, BytesVal: 56832, BytesIdx: 30208, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 1792, RHSProbes: 2738, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9813732651570489, Alpha: 0.03024014230655203, BytesTotal: 93792, CodeBalance: 6.951675066706196, MemSeconds: 1.64909010989011e-05, ComputeSeconds: 2.9316770186335406e-08, KernelSeconds: 2.34909010989011e-05, GFlops: 0.5743500406049197, LaneEfficiency: 0.8932733050847458, CoalescingEfficiency: 0.9300551470588235}, "d9f664deabf80c468563b32d56b99703b0e7d226b5f763f5934f2b0dbb8ecee0"},
	"SELL-4-1":  {KernelStats{Kernel: "sliced-ELL", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 343, Warps: 7, ActiveWarps: 7, BytesVal: 285568, BytesIdx: 285568, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 1792, RHSProbes: 4053, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9874167283493709, Alpha: 0.03024014230655203, BytesTotal: 577888, CodeBalance: 42.831900385413576, MemSeconds: 0.00010160668131868131, ComputeSeconds: 4.260869565217392e-08, KernelSeconds: 0.0001086066813186813, GFlops: 0.12422808464619992, LaneEfficiency: 0.6146137026239067, CoalescingEfficiency: 0.14173857014791574}, "1d8999f79dde1758006e535b3b67033045d91c027d2e8590b63bd119effa34ed"},
	"SELL-8-64": {KernelStats{Kernel: "sliced-ELL-sorted", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 298, Warps: 7, ActiveWarps: 7, BytesVal: 118272, BytesIdx: 118272, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 1792, RHSProbes: 3418, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9850789935634874, Alpha: 0.03024014230655203, BytesTotal: 243296, CodeBalance: 18.032611918173732, MemSeconds: 4.277731868131868e-05, ComputeSeconds: 3.701863354037268e-08, KernelSeconds: 4.977731868131868e-05, GFlops: 0.2710471427032392, LaneEfficiency: 0.7074244966442953, CoalescingEfficiency: 0.3422280844155844}, "e7fe1965ca707b366b5bf2d0d7b58d923f6c5c1ca73ed158cfd566a556332f61"},
	"CMRS-4":    {KernelStats{Kernel: "CMRS", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 233, Warps: 51, ActiveWarps: 51, BytesVal: 80768, BytesIdx: 55552, BytesRHS: 1632, BytesLHS: 13056, BytesMeta: 16512, RHSProbes: 5069, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9899388439534424, Alpha: 0.03024014230655203, BytesTotal: 167520, CodeBalance: 12.416246664690187, MemSeconds: 4.0427149321266965e-06, ComputeSeconds: 2.8944099378881992e-08, KernelSeconds: 1.1042714932126697e-05, GFlops: 1.221800986707315, LaneEfficiency: 0.904774678111588, CoalescingEfficiency: 0.5938380281690141}, "93bc621e0d9e15b206a13d7a3a2d29ac70d0e0d57a2fab52783534efe574dbe1"},
	"CMRS-32":   {KernelStats{Kernel: "CMRS", Device: "Tesla C2070", Rows: 203, Nnz: 6746, UsefulFlops: 13492, ExecutedLaneSteps: 6746, WarpSteps: 214, Warps: 7, ActiveWarps: 7, BytesVal: 72576, BytesIdx: 45568, BytesRHS: 1632, BytesLHS: 3328, BytesMeta: 8064, RHSProbes: 5053, RHSMisses: 51, ElemBytes: 8, WarpSize: 32, L2HitRate: 0.9899069859489412, Alpha: 0.03024014230655203, BytesTotal: 131168, CodeBalance: 9.72190927957308, MemSeconds: 2.3062505494505494e-05, ComputeSeconds: 2.6583850931677023e-08, KernelSeconds: 3.0062505494505494e-05, GFlops: 0.448798254771743, LaneEfficiency: 0.9851051401869159, CoalescingEfficiency: 0.6851977248104009}, "ae894bf4bb5b09ce4c69c2f6575367b03089843c19adeffd61a9bcbfa8e48a0e"},
}

// TestPlanKernelStatsPinned checks that every plan kernel still
// reports exactly the recorded counters, derived model quantities and
// telemetry bytes, at one worker and at eight.
func TestPlanKernelStatsPinned(t *testing.T) {
	m := matgen.EdgeShapes()["ragged-203"]
	x := randVec(m.NCols, 5)
	for _, lc := range layoutCases(t, m) {
		for _, w := range []int{1, 8} {
			reg := telemetry.NewRegistry()
			st, err := lc.run(make([]float64, m.NRows), x, RunOptions{
				Accumulate: true, Workers: w, Plans: NewPlanCache(0), Metrics: reg,
				MetricLabels: []telemetry.Label{telemetry.Li("rank", 3)},
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			prom := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			pin, ok := pinnedStats[lc.name]
			if !ok || !reflect.DeepEqual(*st, pin.st) || prom != pin.prom {
				t.Errorf("%s workers=%d: got\n%q: {%#v, %q},", lc.name, w, lc.name, *st, prom)
			}
		}
	}
}
