package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"pjds/internal/critpath"
	"pjds/internal/matgen"
	"pjds/internal/matrix"
	"pjds/internal/trace"
)

// TestMain runs the tests from the repository root, where the
// benchmark reads BENCHMARK.json and keeps its build directory.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// and checks the result line: every answer matched its reference, no
// operation failed, and every metric of BENCHMARK.json is present with
// its unit. The traced runs must leave a Chrome trace that
// perfreport's analysis accepts, with a span on every lane.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}
	for name := range workloads {
		for _, mode := range []string{"0", "1"} {
			t.Run(name+"/trace="+mode, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", mode, "--tiny"}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errOut.String())
				}
				want := spec.EndToEnd
				if mode == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if mode == "1" {
					checkTrace(t, tracePath(name, 7))
				}
			})
		}
	}
}

func checkTrace(t *testing.T, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := trace.ReadSpans(f)
	if err != nil {
		t.Fatalf("trace does not read back: %v", err)
	}
	if rep := critpath.Analyze(path, spans, nil); rep.Path.PathSeconds <= 0 {
		t.Errorf("perfreport's analysis finds an empty critical path")
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Lane] = true
	}
	for _, l := range lanes {
		if !seen[l] {
			t.Errorf("no span on lane %s", l)
		}
	}
}

// TestMarketBytes checks the fast MatrixMarket writer against
// matrix.WriteMatrixMarket and that the bytes parse back to the same
// matrix, so references computed from the generated matrix hold for
// what the program ingests.
func TestMarketBytes(t *testing.T) {
	for _, m := range []*matrix.CSR[float64]{
		matgen.Stencil2D(9, 7),
		matgen.SAMG(0.0002, 3),
		matgen.PowerLaw(300, 2, 40, 3, 5),
		matgen.Random(200, 3, 12, 9),
	} {
		var want bytes.Buffer
		if err := matrix.WriteMatrixMarket(&want, m); err != nil {
			t.Fatal(err)
		}
		got := marketBytes(m)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d×%d: marketBytes differs from WriteMatrixMarket", m.NRows, m.NCols)
		}
		back, _, err := matrix.ReadMatrixMarketOpt[float64](bytes.NewReader(got), matrix.ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !equalCSR(back, m) {
			t.Fatalf("%d×%d: parsed matrix differs from the generated one", m.NRows, m.NCols)
		}
	}
}

func equalCSR(a, b *matrix.CSR[float64]) bool {
	if a.NRows != b.NRows || a.NCols != b.NCols || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Val {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// TestSelfTimes checks that a span's self time excludes the part its
// children cover, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	add := func(lane string, parent int, start, end int) int {
		tr.spans = append(tr.spans, span{lane: lane, parent: parent, start: ms(start), end: ms(end)})
		return len(tr.spans) - 1
	}
	root := add("loadgen", -1, 0, 10)
	add("service", root, 1, 4)
	add("gpu", root, 3, 6)
	self, total := tr.selfTimes()
	if total != ms(10) || self["loadgen"] != ms(5) || self["service"] != ms(3) || self["gpu"] != ms(3) {
		t.Fatalf("self %v total %v", self, total)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestNoSamplesRefused checks that a metric with no samples is an
// error, not a figure: a run whose requests all fail must not report a
// latency of 0.
func TestNoSamplesRefused(t *testing.T) {
	m := metricSet{}
	m.set("spmv_p50_ms", quantile(nil, 0.5), "ms")
	if err := selectMetrics(m, []metricSpec{{Name: "spmv_p50_ms", Unit: "ms"}}, map[string]value{}); err == nil {
		t.Fatal("a quantile of no samples was reported")
	}
}

// TestFailureMakesRunIncorrect checks that an error or refusal, not
// only a wrong digest, counts against the run.
func TestFailureMakesRunIncorrect(t *testing.T) {
	tl := &tally{log: &bytes.Buffer{}}
	tl.check("ok", "a", "a")
	tl.fail("refused", errors.New("HTTP 429 (quota)"))
	if tl.correct() || tl.attempted.Load() != 2 || tl.failed.Load() != 1 || tl.mismatches.Load() != 0 {
		t.Fatalf("correct %v attempted %d failed %d mismatches %d", tl.correct(), tl.attempted.Load(), tl.failed.Load(), tl.mismatches.Load())
	}
}
