package gpu

import "pjds/internal/telemetry"

// Publish exports the kernel statistics into reg (nil selects
// telemetry.Default()). Every series carries kernel and device labels
// plus the extras (internal/distmv adds rank and phase). Raw
// transaction counts go to counters — they accumulate across runs and
// are order-independent, hence deterministic even for concurrent rank
// goroutines — while the derived model quantities of the paper
// (code balance B_code of Eq. 1, the RHS reuse factor α, coalescing
// and lane efficiency, GF/s) go to last-value gauges.
func (s *KernelStats) Publish(reg *telemetry.Registry, extra ...telemetry.Label) {
	if reg == nil {
		reg = telemetry.Default()
	}
	// Label sets are assembled in stack buffers: with a registry that
	// already holds every series, publishing allocates nothing.
	var buf, sbuf [8]telemetry.Label
	lbl := append(append(buf[:0], telemetry.L("kernel", s.Kernel), telemetry.L("device", s.Device)), extra...)

	reg.Help("gpu_kernel_runs_total", "simulated kernel executions")
	reg.Counter("gpu_kernel_runs_total", lbl...).Inc()
	reg.Help("gpu_kernel_rows_total", "matrix rows processed")
	reg.Counter("gpu_kernel_rows_total", lbl...).Add(float64(s.Rows))
	reg.Help("gpu_kernel_nnz_total", "non-zeros processed")
	reg.Counter("gpu_kernel_nnz_total", lbl...).Add(float64(s.Nnz))
	reg.Help("gpu_kernel_useful_flops_total", "useful flops (2·nnz, the paper's GF/s numerator)")
	reg.Counter("gpu_kernel_useful_flops_total", lbl...).Add(float64(s.UsefulFlops))
	reg.Help("gpu_kernel_lane_steps_total", "FMA slots executed by active lanes")
	reg.Counter("gpu_kernel_lane_steps_total", lbl...).Add(float64(s.ExecutedLaneSteps))
	reg.Help("gpu_kernel_warp_steps_total", "SIMT instruction steps summed over warps (Fig. 2's hardware reservation)")
	reg.Counter("gpu_kernel_warp_steps_total", lbl...).Add(float64(s.WarpSteps))
	reg.Help("gpu_kernel_warps_total", "warps launched")
	reg.Counter("gpu_kernel_warps_total", lbl...).Add(float64(s.Warps))
	reg.Help("gpu_kernel_active_warps_total", "warps with at least one non-empty row")
	reg.Counter("gpu_kernel_active_warps_total", lbl...).Add(float64(s.ActiveWarps))
	reg.Help("gpu_kernel_rhs_probes_total", "L2 lookups of the RHS gather")
	reg.Counter("gpu_kernel_rhs_probes_total", lbl...).Add(float64(s.RHSProbes))
	reg.Help("gpu_kernel_rhs_misses_total", "L2 misses of the RHS gather")
	reg.Counter("gpu_kernel_rhs_misses_total", lbl...).Add(float64(s.RHSMisses))
	reg.Help("gpu_kernel_seconds_total", "derived kernel wallclock")
	reg.Counter("gpu_kernel_seconds_total", lbl...).Add(s.KernelSeconds)

	reg.Help("gpu_kernel_bytes_total", "device-memory traffic by stream")
	for _, st := range [...]struct {
		stream string
		bytes  int64
	}{
		{"val", s.BytesVal},
		{"idx", s.BytesIdx},
		{"rhs", s.BytesRHS},
		{"lhs", s.BytesLHS},
		{"meta", s.BytesMeta},
	} {
		reg.Counter("gpu_kernel_bytes_total", append(append(sbuf[:0], telemetry.L("stream", st.stream)), lbl...)...).
			Add(float64(st.bytes))
	}

	reg.Help("gpu_kernel_code_balance", "bytes per useful flop (Eq. 1's B_code)")
	reg.Gauge("gpu_kernel_code_balance", lbl...).Set(s.CodeBalance)
	reg.Help("gpu_kernel_alpha", "measured RHS traffic per non-zero in element widths (Eq. 1's α)")
	reg.Gauge("gpu_kernel_alpha", lbl...).Set(s.Alpha)
	reg.Help("gpu_kernel_coalescing_efficiency", "minimal / actual val+idx stream traffic")
	reg.Gauge("gpu_kernel_coalescing_efficiency", lbl...).Set(s.CoalescingEfficiency)
	reg.Help("gpu_kernel_l2_hit_rate", "RHS gather L2 hit rate")
	reg.Gauge("gpu_kernel_l2_hit_rate", lbl...).Set(s.L2HitRate)
	reg.Help("gpu_kernel_lane_efficiency", "executed lane steps / reserved SIMT slots (warp divergence)")
	reg.Gauge("gpu_kernel_lane_efficiency", lbl...).Set(s.LaneEfficiency)
	reg.Help("gpu_kernel_gflops", "useful GF/s of the last run (as in Table I)")
	reg.Gauge("gpu_kernel_gflops", lbl...).Set(s.GFlops)
}

// publishFormatGeometry exports the layout-quality gauges of a
// parameterized chunked format: the zero-padding overhead
// β = stored/nnz − 1 and the chunk occupancy nnz/stored = 1/(1+β).
// Callers attach the parameter labels (c/sigma for SELL-C-σ, height
// for CMRS), so the tuner's sweep leaves one gauge series per grid
// cell it compiled.
func publishFormatGeometry(reg *telemetry.Registry, stored, nnz int64, lbl ...telemetry.Label) {
	if reg == nil {
		reg = telemetry.Default()
	}
	beta, occ := 0.0, 1.0
	if nnz > 0 && stored > 0 {
		beta = float64(stored)/float64(nnz) - 1
		occ = float64(nnz) / float64(stored)
	}
	reg.Help("gpu_format_zero_padding", "zero-padding overhead beta = stored/nnz - 1 of the compiled layout")
	reg.Gauge("gpu_format_zero_padding", lbl...).Set(beta)
	reg.Help("gpu_format_chunk_occupancy", "fraction of stored slots holding genuine non-zeros (1/(1+beta))")
	reg.Gauge("gpu_format_chunk_occupancy", lbl...).Set(occ)
}
