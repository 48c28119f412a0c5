// Package telemetry is the dependency-free observability layer of the
// simulated GPGPU cluster: a metrics registry (atomic counters, gauges
// and histograms with labels), a span log for virtual-time timelines,
// Prometheus-text and JSON exposition, and an optional HTTP endpoint
// for watching long runs live.
//
// Every simulator layer publishes into a Registry: internal/gpu emits
// per-kernel transaction counts and the paper's model quantities
// (Eq. 1's code balance and α, coalescing efficiency), internal/simnet
// and internal/mpi emit wire traffic and serialization time,
// internal/distmv emits per-rank structure and run-level performance,
// and the solvers emit iteration/residual gauges. Output is
// deterministic: metric families are sorted by name, series by their
// canonical (sorted) label set, and spans by start time.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension of a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Li builds a Label with an integer value (ranks, node counts).
func Li(key string, value int) Label { return Label{Key: key, Value: strconv.Itoa(value)} }

// canonical renders labels in sorted {k="v",...} form; it is the
// series identity within a family and the exposition order.
func canonical(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var buf [stackLabels]Label
	ls := sortLabels(buf[:0], labels)
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// stackLabels is the label count a series lookup sorts without a heap
// allocation; every series in the tree carries fewer.
const stackLabels = 8

// sortLabels appends labels to dst and sorts the appended run by key,
// then value (the canonical order). Insertion sort: label sets are
// tiny, and sort.Slice would force dst onto the heap.
func sortLabels(dst, labels []Label) []Label {
	dst = append(dst, labels...)
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && labelLess(dst[j], dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

func labelLess(a, b Label) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Value < b.Value
}

// seriesHash is FNV-1a over the name and the sorted labels. Label
// values may contain the separator bytes, so distinct series can
// collide; lookups resolve that with series.is.
func seriesHash(name string, sorted []Label) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string, sep byte) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ uint64(sep)) * 1099511628211
	}
	mix(name, '{')
	for _, l := range sorted {
		mix(l.Key, '=')
		mix(l.Value, ',')
	}
	return h
}

// series is the identity every metric kind shares: its family name,
// its labels in canonical order and their canonical string (the
// exposition sort key). All three are built once, when the series is
// created.
type series struct {
	name   string
	labels []Label
	canon  string
}

func newSeries(name string, sorted []Label) series {
	return series{name: name, labels: append([]Label(nil), sorted...), canon: canonical(sorted)}
}

// is reports whether the series is name with the given sorted labels.
func (s *series) is(name string, sorted []Label) bool {
	if s.name != name || len(s.labels) != len(sorted) {
		return false
	}
	for i, l := range sorted {
		if s.labels[i] != l {
			return false
		}
	}
	return true
}

// escapeLabel applies the Prometheus label-value escaping rules.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether name is a legal metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing series.
type Counter struct {
	series
	val atomicFloat
}

// Add increases the counter; negative deltas panic (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("telemetry: negative counter delta %g", v))
	}
	c.val.add(v)
}

// Inc adds one.
func (c *Counter) Inc() { c.val.add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.val.load() }

// Gauge is a series holding the last observed value.
type Gauge struct {
	series
	val atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.val.store(v) }

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) { g.val.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.load() }

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	series
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomicFloat
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// DefBuckets is the default byte-size bucket ladder used for message
// and transfer sizes.
var DefBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// Registry holds metric families. All methods are safe for concurrent
// use; series handles (Counter, Gauge, Histogram) update with atomics
// only. Series are indexed by seriesHash, each bucket a short list
// disambiguated by series.is, so looking up an existing series builds
// no string and allocates nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[uint64][]*Counter
	gauges   map[uint64][]*Gauge
	hists    map[uint64][]*Histogram
	// kind guards one name against being used as several metric types.
	kind map[string]string
	help map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[uint64][]*Counter{},
		gauges:   map[uint64][]*Gauge{},
		hists:    map[uint64][]*Histogram{},
		kind:     map[string]string{},
		help:     map[string]string{},
	}
}

// defaultRegistry collects everything not sent to an explicit registry;
// the cmd binaries expose it via -metrics-out / -metrics-addr.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Help attaches exposition help text to a family name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// checkKind registers (or verifies) the type of a family. Callers hold r.mu.
func (r *Registry) checkKind(name, want string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if k, ok := r.kind[name]; ok && k != want {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, k, want))
	}
	r.kind[name] = want
}

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	var buf [stackLabels]Label
	sorted := sortLabels(buf[:0], labels)
	h := seriesHash(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters[h] {
		if c.is(name, sorted) {
			return c
		}
	}
	r.checkKind(name, "counter")
	c := &Counter{series: newSeries(name, sorted)}
	r.counters[h] = append(r.counters[h], c)
	return c
}

// Gauge returns the gauge series for name+labels, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	var buf [stackLabels]Label
	sorted := sortLabels(buf[:0], labels)
	h := seriesHash(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.gauges[h] {
		if g.is(name, sorted) {
			return g
		}
	}
	r.checkKind(name, "gauge")
	g := &Gauge{series: newSeries(name, sorted)}
	r.gauges[h] = append(r.gauges[h], g)
	return g
}

// Histogram returns the histogram series for name+labels, creating it
// with the given ascending bucket bounds on first use (nil selects
// DefBuckets). Later calls reuse the first bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	var buf [stackLabels]Label
	sorted := sortLabels(buf[:0], labels)
	h := seriesHash(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, hs := range r.hists[h] {
		if hs.is(name, sorted) {
			return hs
		}
	}
	r.checkKind(name, "histogram")
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	hs := &Histogram{
		series: newSeries(name, sorted),
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[h] = append(r.hists[h], hs)
	return hs
}
