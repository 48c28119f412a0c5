#!/bin/sh
# Run the repo's performance benchmarks.
#
# Default mode: the Go micro-benchmarks, then a fixed spmvbench workload
# whose measurements land in BENCH_PR1.json (schema pjds-bench/v1: GF/s,
# derived bandwidth, code balance and alpha per matrix/format/precision/
# ECC cell).
#
# pr2 mode: the kernel-plan before/after comparison. "Before" is the
# pre-plan behaviour — every Run* call pays the full coalescing/L2
# analysis (BenchmarkPlanCompile/compile runs against a cold cache);
# "after" is the cached replay (BenchmarkPlanCompile/replay: the
# layout's row body plus a copy of the compiled counter totals, about
# 6.5x cheaper than a compile at scale 0.1 on a 2-vCPU VM), plus the
# per-worker-count replay benchmarks. ns/op for every benchmark is
# written to BENCH_PR2.json (schema pjds-bench-pr2/v1).
#
# pr3 mode: the causal performance report. Runs the distributed
# benchmark in all three §III-A modes with span + metrics
# instrumentation and writes the critical-path attribution, overlap
# efficiency, and Eq. 1 kernel table to BENCH_PR3.json — the artifact
# scripts/regress.sh compares across checkouts.
#
# pr4 mode: the fault-tolerance benchmark. Runs the recoverable
# distributed CG under seed-42 fault plans — fault-free baseline, a 1%
# message-drop wire, and a single mid-solve rank crash — and writes
# solve times, recovery latencies, retry counts and correctness
# verdicts to BENCH_PR4.json (schema pjds-chaos/v1), comparable across
# checkouts with scripts/regress.sh.
#
# pr5 mode: the ingest-and-convert pipeline benchmark. Runs the
# parallel-reader / COO→CSR / pJDS-build / partition micro-benchmarks
# at worker counts 1/2/4, then the perfreport -convert phase
# comparison (1 worker vs 4), writing per-phase seconds, speedup, and
# the §II-C amortization quantities (spMVM-equivalents and break-even
# iteration count) to BENCH_PR5.json (schema pjds-convert/v1),
# comparable across checkouts with scripts/regress.sh.
#
# pr6 mode: the instrumentation hot path. Benchmarks Counter.Inc,
# Histogram.Observe and the flight-recorder record/span/disabled-hook
# paths with -benchmem and HARD-FAILS if any of them allocates in
# steady state — the recorder is designed to be left always-on, so
# 0 allocs/op is an acceptance criterion, not a nice-to-have. ns/op
# and allocs/op land in BENCH_PR6.json (schema pjds-bench-pr6/v1),
# comparable across checkouts with scripts/regress.sh (allocs are
# exact; give ns_per_op a wider band, e.g. ns_per_op=0.3).
#
# pr7 mode: the CPU host-kernel benchmarks. Runs the hostkernel
# naive/blocked/SELL/pJDS benchmarks with -benchmem at -count 3 and
# HARD-FAILS if (a) any host kernel allocates in steady state (the
# kernels are built for a zero-alloc steady state, so 0 allocs/op is
# an acceptance criterion) or (b) the blocked kernel's best ns/nnz is
# not below the naive reference's best (min over 3 runs on each side
# absorbs scheduler noise on the 1-CPU container — see DESIGN.md).
# ns/op, ns/nnz and allocs/op land in BENCH_PR7.json (schema
# pjds-bench-pr7/v1), comparable across checkouts with
# scripts/regress.sh (allocs are exact; give the timing metrics a
# wide band on virtualized hardware, e.g. ns_per_nnz=0.3).
#
# pr8 mode: the phase-labeled profiling benchmark. Runs the host
# benchmark under the CPU profiler with pprof phase labels on, appends
# the run to the ledger, HARD-FAILS unless >= 90% of CPU samples carry
# a known phase label (perfreport -profile -check-attributed 0.90),
# and writes the per-phase attribution to BENCH_PR8.json (schema
# pjds-profile/v1). The millisecond totals are wall-clock, so gate
# them with a wide band; the attribution fractions are the stable
# quantities.
#
# pr9 mode: the multi-tenant service benchmark. Runs spmvd -bench —
# the chaos client swarm (concurrent tenants, killed clients, tight
# deadlines, an injected mid-run ECC error forcing a device→host
# downgrade) against a live server over real HTTP, then the admission
# fast-path micro-benchmark — and writes p50/p99 end-to-end latency,
# throughput_rps, shed/downgrade counts and admission ns/op+allocs/op
# to BENCH_PR9.json (schema pjds-spmvd/v1). HARD-FAILS if the
# admission path allocates in steady state, if any returned digest
# differs from the fault-free reference, or if the percentiles are
# missing. Latency/throughput are wall-clock under load — gate them
# with a wide band (e.g. p50_latency_seconds=0.5); allocs and
# digest_mismatches are exact.
#
# pr10 mode: the format-selection benchmark. Sweeps the (C, σ)
# auto-tuner over the Table I matrices (CRS, pJDS, SELL-C-σ and CMRS
# contenders, Eq. 1 model pruning, timed replays), persists winners in
# a fresh tuning DB, and writes the auto-vs-pJDS comparison to
# BENCH_PR10.json (schema pjds-tune/v1). HARD-FAILS if (a) any tuned
# pick's result vector is not bit-identical to the naive CSR
# reference, (b) the auto pick is more than 25% slower than the pJDS
# preset on any matrix (the tuned format must win or tie within
# noise), or (c) the second run misses the tuning-DB cache anywhere
# (tune-once-per-fingerprint is part of the contract). The ns/nnz
# numbers are wall-clock — gate them with a wide band (e.g.
# auto_ns_per_nnz=0.3); digest_match and cache_hit are exact.
#
# Usage: scripts/bench.sh [scale]        (default 0.05 — quick but stable)
#        scripts/bench.sh pr2 [scale]
#        scripts/bench.sh pr3 [scale]
#        scripts/bench.sh pr4 [seed]
#        scripts/bench.sh pr5 [scale]
#        scripts/bench.sh pr6
#        scripts/bench.sh pr7
#        scripts/bench.sh pr8 [scale]
#        scripts/bench.sh pr9 [seed]
#        scripts/bench.sh pr10 [scale]
set -eu
cd "$(dirname "$0")/.."

MODE=default
case "${1:-}" in
pr2)
    MODE=pr2
    shift
    ;;
pr3)
    MODE=pr3
    shift
    ;;
pr4)
    MODE=pr4
    shift
    ;;
pr5)
    MODE=pr5
    shift
    ;;
pr6)
    MODE=pr6
    shift
    ;;
pr7)
    MODE=pr7
    shift
    ;;
pr8)
    MODE=pr8
    shift
    ;;
pr9)
    MODE=pr9
    shift
    ;;
pr10)
    MODE=pr10
    shift
    ;;
esac
SCALE="${1:-0.05}"

if [ "$MODE" = pr10 ]; then
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT
    echo "== format-selection benchmark (auto-tuner vs pJDS preset, scale $SCALE) =="
    go run ./cmd/spmvbench -format auto -scale "$SCALE" -host-iters 3 \
        -tuning-db "$TMP/tuning.jsonl" -tune-json BENCH_PR10.json
    echo "== second run (tuning-DB cache) =="
    go run ./cmd/spmvbench -format auto -scale "$SCALE" -host-iters 3 \
        -tuning-db "$TMP/tuning.jsonl" -tune-json "$TMP/second.json" >/dev/null
    awk '
        /"matrix":/ { m = $2; gsub(/[",]/, "", m) }
        /"auto_ns_per_nnz":/ { auto = $2; gsub(/[^0-9.eE+-]/, "", auto) }
        /"pjds_ns_per_nnz":/ {
            pjds = $2; gsub(/[^0-9.eE+-]/, "", pjds)
            if (auto + 0 <= 0 || pjds + 0 <= 0) {
                print "FAIL: " m " missing a measurement" > "/dev/stderr"; bad = 1
            } else if (auto + 0 > pjds * 1.25) {
                printf "FAIL: %s auto pick %.3f ns/nnz is >25%% slower than pJDS %.3f\n", \
                    m, auto, pjds > "/dev/stderr"
                bad = 1
            }
            n++
        }
        /"digest_match": false/ {
            print "FAIL: " m " tuned pick is not bit-identical to naive" > "/dev/stderr"
            bad = 1
        }
        END {
            if (n == 0) { print "FAIL: no entries in BENCH_PR10.json" > "/dev/stderr"; bad = 1 }
            else if (!bad) printf "gate ok: %d matrices, auto within 25%% of pJDS, all digests MATCH\n", n
            exit bad
        }' BENCH_PR10.json
    awk '
        /"matrix":/ { n++ }
        /"cache_hit": true/ { hits++ }
        END {
            if (n == 0 || hits != n) {
                printf "FAIL: second run hit the tuning DB on %d/%d matrices\n", \
                    hits, n > "/dev/stderr"
                exit 1
            }
            printf "gate ok: second run answered all %d matrices from the tuning DB\n", n
        }' "$TMP/second.json"
    echo "wrote BENCH_PR10.json (gate with scripts/regress.sh OLD NEW 0.02 auto_ns_per_nnz=0.3,pjds_ns_per_nnz=0.3,model_bytes_per_nnz=0.05)"
    exit 0
fi

if [ "$MODE" = pr9 ]; then
    SEED="${1:-42}"
    echo "== spmvd service benchmark (chaos swarm + admission fast path, seed $SEED) =="
    go run ./cmd/spmvd -bench -seed "$SEED" -o BENCH_PR9.json
    awk '
        /"allocs_per_op":/ {
            v = $2; gsub(/[^0-9.]/, "", v)
            if (v + 0 != 0) {
                print "FAIL: admission fast path allocates " v " allocs/op" > "/dev/stderr"
                bad = 1
            }
        }
        /"digest_mismatches":/ {
            v = $2; gsub(/[^0-9.]/, "", v)
            if (v + 0 != 0) {
                print "FAIL: " v " digest mismatch(es) under the chaos swarm" > "/dev/stderr"
                bad = 1
            }
        }
        /"p50_latency_seconds":/ { p50 = $2; gsub(/[^0-9.eE+-]/, "", p50) }
        /"p99_latency_seconds":/ { p99 = $2; gsub(/[^0-9.eE+-]/, "", p99) }
        END {
            if (p50 == "" || p99 == "" || p50 + 0 <= 0 || p99 + 0 <= 0) {
                print "FAIL: latency percentiles missing from BENCH_PR9.json" > "/dev/stderr"
                bad = 1
            } else {
                printf "gate ok: p50 %.3f ms, p99 %.3f ms, 0 allocs/op, 0 digest mismatches\n", \
                    p50 * 1000, p99 * 1000
            }
            exit bad
        }' BENCH_PR9.json
    echo "wrote BENCH_PR9.json (gate with scripts/regress.sh OLD NEW 0.02 p50_latency_seconds=0.5,p99_latency_seconds=0.5,throughput_rps=0.5,ns_per_op=0.3,elapsed_seconds=0.5)"
    exit 0
fi

if [ "$MODE" = pr8 ]; then
    TMP=$(mktemp -d)
    trap 'rm -rf "$TMP"' EXIT
    echo "== phase-labeled profiling benchmark (scale $SCALE) =="
    go run ./cmd/spmvbench -hostbench -host-kernel blocked -host-iters 3 \
        -scale "$SCALE" -cpuprofile "$TMP/cpu.pprof" -ledger default >/dev/null
    go run ./cmd/perfreport -profile "$TMP/cpu.pprof" -check-attributed 0.90
    go run ./cmd/perfreport -profile "$TMP/cpu.pprof" -json -o BENCH_PR8.json
    echo "wrote BENCH_PR8.json (gate attribution fractions; ms totals are wall-clock)"
    exit 0
fi

if [ "$MODE" = pr4 ]; then
    SEED="${1:-42}"
    echo "== chaos fault-tolerance benchmark (seed $SEED) =="
    go run ./cmd/chaos -seed "$SEED" -scenarios baseline,drop1pct,crash -skip-modes
    go run ./cmd/chaos -seed "$SEED" -scenarios baseline,drop1pct,crash -skip-modes \
        -json -o BENCH_PR4.json
    echo "wrote BENCH_PR4.json (gate with scripts/regress.sh OLD NEW)"
    exit 0
fi

if [ "$MODE" = pr6 ]; then
    echo "== instrumentation hot-path benchmarks (-benchmem, 0 allocs/op gate) =="
    OUT=$(go test -run '^$' \
        -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve' \
        -benchmem ./internal/telemetry/
    go test -run '^$' \
        -bench 'BenchmarkFlightEvent|BenchmarkFlightSpan|BenchmarkRecordDisabled' \
        -benchmem ./internal/flight/)
    echo "$OUT"
    echo "$OUT" | awk '
        BEGIN { n = 0; bad = 0 }
        $1 ~ /^Benchmark/ && $(NF) == "allocs/op" {
            name = $1
            sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
            names[n] = name; ns[n] = $3; allocs[n] = $(NF-1); n++
            if ($(NF-1) + 0 != 0) {
                printf "FAIL: %s allocates %s allocs/op on the hot path\n", name, $(NF-1) > "/dev/stderr"
                bad = 1
            }
        }
        END {
            printf "{\n  \"schema\": \"pjds-bench-pr6/v1\",\n"
            printf "  \"benchmarks\": [\n"
            for (i = 0; i < n; i++)
                printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
                    names[i], ns[i], allocs[i], (i < n-1 ? "," : "")
            printf "  ]\n}\n"
            exit bad
        }' >BENCH_PR6.json
    echo "wrote BENCH_PR6.json (gate with scripts/regress.sh OLD NEW 0.02 ns_per_op=0.3)"
    exit 0
fi

if [ "$MODE" = pr7 ]; then
    echo "== host-kernel benchmarks (-benchmem, 0 allocs/op + blocked<naive gates) =="
    OUT=$(go test -run '^$' \
        -bench 'BenchmarkHostNaive|BenchmarkHostCRS|BenchmarkHostSELL|BenchmarkHostPJDS|BenchmarkHostCRSWorkers' \
        -benchmem -benchtime 300x -count 3 ./internal/hostkernel/)
    echo "$OUT"
    echo "$OUT" | awk '
        BEGIN { n = 0; bad = 0 }
        $1 ~ /^Benchmark/ && $NF == "allocs/op" {
            name = $1
            sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
            allocs = $(NF-1)
            nsnnz = ""
            for (i = 1; i < NF; i++) if ($(i+1) == "ns/nnz") nsnnz = $i
            if (allocs + 0 != 0) {
                printf "FAIL: %s allocates %s allocs/op in steady state\n", name, allocs > "/dev/stderr"
                bad = 1
            }
            if (!(name in best) || nsnnz + 0 < best[name] + 0) {
                if (!(name in best)) { names[n] = name; n++ }
                best[name] = nsnnz
                ns[name] = $3
                al[name] = allocs
            }
        }
        END {
            naive = best["BenchmarkHostNaive"]
            blocked = best["BenchmarkHostCRS/blocked"]
            if (naive == "" || blocked == "") {
                print "FAIL: missing naive or blocked benchmark output" > "/dev/stderr"
                bad = 1
            } else if (blocked + 0 >= naive + 0) {
                printf "FAIL: blocked kernel %s ns/nnz not below naive %s ns/nnz\n", \
                    blocked, naive > "/dev/stderr"
                bad = 1
            } else {
                printf "gate ok: blocked %s ns/nnz < naive %s ns/nnz, all 0 allocs/op\n", \
                    blocked, naive > "/dev/stderr"
            }
            printf "{\n  \"schema\": \"pjds-bench-pr7/v1\",\n"
            printf "  \"benchmarks\": [\n"
            for (i = 0; i < n; i++) {
                name = names[i]
                printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"ns_per_nnz\": %s, \"allocs_per_op\": %s}%s\n", \
                    name, ns[name], best[name], al[name], (i < n-1 ? "," : "")
            }
            printf "  ]\n}\n"
            exit bad
        }' >BENCH_PR7.json
    echo "wrote BENCH_PR7.json (gate with scripts/regress.sh OLD NEW 0.02 ns_per_op=0.3,ns_per_nnz=0.3)"
    exit 0
fi

if [ "$MODE" = pr5 ]; then
    echo "== ingest-and-convert micro-benchmarks =="
    go test -run '^$' \
        -bench 'BenchmarkReadMatrixMarket|BenchmarkCOOToCSRWorkers' \
        -benchtime 3x ./internal/matrix/
    go test -run '^$' -bench 'BenchmarkNewPJDSWorkers' \
        -benchtime 3x ./internal/core/
    go test -run '^$' -bench 'BenchmarkPartition' \
        -benchtime 3x ./internal/distmv/
    echo "== perfreport conversion-cost report (scale $SCALE, 4 workers) =="
    go run ./cmd/perfreport -convert -matrix sAMG -scale "$SCALE" -workers 4
    go run ./cmd/perfreport -convert -matrix sAMG -scale "$SCALE" -workers 4 \
        -json -o BENCH_PR5.json
    echo "wrote BENCH_PR5.json (gate with scripts/regress.sh OLD NEW)"
    exit 0
fi

if [ "$MODE" = pr3 ]; then
    echo "== perfreport causal analysis (scale $SCALE, P=8, all modes) =="
    go run ./cmd/perfreport -ranks 8 -scale "$SCALE"
    go run ./cmd/perfreport -ranks 8 -scale "$SCALE" -json -o BENCH_PR3.json
    echo "wrote BENCH_PR3.json (gate with scripts/regress.sh OLD NEW)"
    exit 0
fi

if [ "$MODE" = pr2 ]; then
    echo "== kernel-plan benchmarks (scale $SCALE) =="
    OUT=$(PJDS_SCALE="$SCALE" go test -run '^$' \
        -bench 'BenchmarkRunPJDS|BenchmarkRunELLPACKR|BenchmarkPlanCompile' \
        -benchtime 5x ./internal/gpu/)
    echo "$OUT"
    echo "$OUT" | awk -v scale="$SCALE" '
        BEGIN { n = 0 }
        $1 ~ /^Benchmark/ && $4 == "ns/op" {
            name = $1
            sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
            names[n] = name; iters[n] = $2; ns[n] = $3; n++
            if (name == "BenchmarkPlanCompile/compile") compile = $3
            if (name == "BenchmarkPlanCompile/replay")  replay = $3
        }
        END {
            printf "{\n  \"schema\": \"pjds-bench-pr2/v1\",\n"
            printf "  \"scale\": %s,\n", scale
            printf "  \"benchmarks\": [\n"
            for (i = 0; i < n; i++)
                printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}%s\n", \
                    names[i], iters[i], ns[i], (i < n-1 ? "," : "")
            printf "  ],\n"
            printf "  \"before_compile_per_call_ns\": %s,\n", compile
            printf "  \"after_cached_replay_ns\": %s,\n", replay
            printf "  \"plan_amortization_speedup\": %.3f\n", compile / replay
            printf "}\n"
        }' >BENCH_PR2.json
    echo "wrote BENCH_PR2.json"
    exit 0
fi

go build -o /tmp/pjds-bin/ ./cmd/...
BIN=/tmp/pjds-bin

echo "== Go micro-benchmarks =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== spmvbench Table I workload (scale $SCALE) =="
$BIN/spmvbench -table1 -scale "$SCALE" -json BENCH_PR1.json \
    -metrics-out BENCH_PR1.metrics.json > /dev/null
echo "wrote BENCH_PR1.json and BENCH_PR1.metrics.json"
