package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestHelpEscaping covers the Prometheus text-format escaping rule
// for HELP docstrings: a raw backslash or newline would corrupt the
// line-oriented exposition.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total").Inc()
	r.Help("weird_total", "first line\nsecond \\ line")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP weird_total first line\nsecond \\ line`
	if !strings.Contains(out, want) {
		t.Fatalf("HELP line not escaped:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "second") {
			t.Fatalf("raw newline leaked into exposition:\n%s", out)
		}
	}
}

func TestEscapeHelpNoop(t *testing.T) {
	const plain = "a perfectly ordinary help string"
	if got := escapeHelp(plain); got != plain {
		t.Fatalf("escapeHelp(%q) = %q", plain, got)
	}
}

// TestConcurrentScrapeWhileWrite hammers the registry and span log
// from writer goroutines while scrapers run WritePrometheus/WriteJSON
// in a loop. It exists to fail under -race if any exposition path
// reads unsynchronized state (scripts/check.sh runs this package with
// -race).
func TestConcurrentScrapeWhileWrite(t *testing.T) {
	r := NewRegistry()
	log := NewSpanLog()
	const writers = 4
	const perWriter = 400

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hammer_total", Li("rank", g))
			h := r.Histogram("hammer_seconds", []float64{0.001, 0.01, 0.1}, Li("rank", g))
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				r.Gauge("hammer_gauge", Li("rank", g)).Set(float64(i))
				h.Observe(float64(i) * 1e-4)
				log.Add(Span{Proc: g, Lane: "host", Name: "hammer", Start: float64(i), End: float64(i) + 1})
			}
		}(g)
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.WritePrometheus(io.Discard)
					_ = r.WriteJSON(io.Discard)
					_ = log.Spans()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range series {
		if s.Name == "hammer_total" {
			total += s.Value
		}
	}
	if want := float64(writers * perWriter); total != want {
		t.Fatalf("hammer_total sums to %g, want %g", total, want)
	}
	if got := log.Len(); got != writers*perWriter {
		t.Fatalf("span log has %d spans, want %d", got, writers*perWriter)
	}
}

// The instrumentation hot path must not allocate in steady state:
// these run under scripts/bench.sh pr6, which gates 0 allocs/op.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", L("rank", "0"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", []float64{1e-4, 1e-3, 1e-2, 1e-1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(2e-3)
	}
}

// TestLookupAllocs pins the lookup side of the hot path: fetching an
// existing labeled counter, gauge or histogram hashes the sorted
// labels on the stack and builds no string, so it allocates nothing
// (scripts/check.sh stresses this with -count 20 -cpu 1,2,4).
func TestLookupAllocs(t *testing.T) {
	r := NewRegistry()
	lbl := []Label{L("kernel", "pJDS"), L("device", "Tesla C2070"), Li("rank", 3)}
	r.Counter("lookup_total", lbl...)
	r.Gauge("lookup_gauge", lbl...)
	r.Histogram("lookup_seconds", nil, lbl...)
	allocs := testing.AllocsPerRun(200, func() {
		r.Counter("lookup_total", lbl...).Inc()
		r.Gauge("lookup_gauge", L("stream", "val"), L("kernel", "pJDS")).Set(1)
		r.Histogram("lookup_seconds", nil, lbl...).Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("existing-series lookup: %v allocs/op, want 0", allocs)
	}
}

// TestLookupLabelOrder checks that label order does not split a
// series: every permutation of one label set names the same handle,
// and a different value names a different one.
func TestLookupLabelOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("order_total", L("b", "2"), L("a", "1"), L("c", "3"))
	for _, ls := range [][]Label{
		{L("a", "1"), L("b", "2"), L("c", "3")},
		{L("c", "3"), L("a", "1"), L("b", "2")},
	} {
		if r.Counter("order_total", ls...) != a {
			t.Fatalf("labels %v resolved to a new series", ls)
		}
	}
	if r.Counter("order_total", L("a", "1"), L("b", "2"), L("c", "4")) == a {
		t.Fatal("a different label value resolved to the same series")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE order_total counter\norder_total{a=\"1\",b=\"2\",c=\"3\"} 0\norder_total{a=\"1\",b=\"2\",c=\"4\"} 0\n"
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}
