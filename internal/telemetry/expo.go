package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the bound as a string so the +Inf bucket
// survives JSON encoding.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatValue(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON parses the string-bound form written by MarshalJSON,
// including the "+Inf" bucket.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch raw.Le {
	case "+Inf":
		b.UpperBound = math.Inf(1)
	case "-Inf":
		b.UpperBound = math.Inf(-1)
	default:
		v, err := strconv.ParseFloat(raw.Le, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bucket bound %q: %w", raw.Le, err)
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// Series is one metric series in a snapshot.
type Series struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	// Histogram-only fields; Buckets are cumulative and end at +Inf.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`

	canon string // sort key within a family
}

// seriesJSON is the wire form of Series. Pointer fields force the
// value/sum/count keys to be emitted even when zero: with a plain
// `omitempty` float64, a zero-valued counter or gauge would silently
// drop its "value" field from the snapshot (and an empty histogram its
// "sum"/"count"), so consumers could not tell "zero" from "absent".
type seriesJSON struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Buckets []Bucket          `json:"buckets,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
}

// MarshalJSON emits the sampled value explicitly: counters and gauges
// always carry "value" (even 0), histograms always carry "sum" and
// "count" (even when empty).
func (s Series) MarshalJSON() ([]byte, error) {
	j := seriesJSON{Name: s.Name, Type: s.Type, Labels: s.Labels, Buckets: s.Buckets}
	if s.Type == "histogram" {
		sum, count := s.Sum, s.Count
		j.Sum, j.Count = &sum, &count
	} else {
		v := s.Value
		j.Value = &v
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a series from its wire form (absent fields
// stay zero).
func (s *Series) UnmarshalJSON(data []byte) error {
	var j seriesJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Series{Name: j.Name, Type: j.Type, Labels: j.Labels, Buckets: j.Buckets}
	if j.Value != nil {
		s.Value = *j.Value
	}
	if j.Sum != nil {
		s.Sum = *j.Sum
	}
	if j.Count != nil {
		s.Count = *j.Count
	}
	return nil
}

// Snapshot returns every series in deterministic order: families
// sorted by name (counters, gauges and histograms interleaved), series
// within a family by their canonical label set.
func (r *Registry) Snapshot() []Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Series
	for _, cs := range r.counters {
		for _, c := range cs {
			out = append(out, Series{
				Name: c.name, Type: "counter",
				Labels: labelMap(c.labels), Value: c.Value(),
				canon: c.canon,
			})
		}
	}
	for _, gs := range r.gauges {
		for _, g := range gs {
			out = append(out, Series{
				Name: g.name, Type: "gauge",
				Labels: labelMap(g.labels), Value: g.Value(),
				canon: g.canon,
			})
		}
	}
	for _, hs := range r.hists {
		for _, h := range hs {
			s := Series{
				Name: h.name, Type: "histogram",
				Labels: labelMap(h.labels),
				Sum:    h.Sum(), Count: h.Count(),
				canon: h.canon,
			}
			cum := uint64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				s.Buckets = append(s.Buckets, Bucket{UpperBound: b, Count: cum})
			}
			cum += h.counts[len(h.bounds)].Load()
			s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].canon < out[j].canon
	})
	return out
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// escapeHelp escapes a HELP docstring per the Prometheus text
// exposition rules: backslash and newline would otherwise break the
// line-oriented format, so they become \\ and \n.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus does.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4). Output is byte-deterministic for
// a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	r.mu.Lock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	lastName := ""
	for _, s := range snap {
		if s.Name != lastName {
			if h, ok := help[s.Name]; ok {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, escapeHelp(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Type); err != nil {
				return err
			}
			lastName = s.Name
		}
		switch s.Type {
		case "histogram":
			for _, b := range s.Buckets {
				lbls := append(labelsOf(s.Labels), L("le", formatValue(b.UpperBound)))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, canonical(lbls), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.canon, formatValue(s.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.canon, s.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.canon, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func labelsOf(m map[string]string) []Label {
	var out []Label
	for k, v := range m {
		out = append(out, L(k, v))
	}
	return out
}

// WriteFile writes the registry to path: JSON when the path ends in
// .json, Prometheus text otherwise.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadSnapshot parses a JSON snapshot previously written by WriteJSON
// (the {"metrics": [...]} document of -metrics-out FILE.json), so
// analysis tools can consume saved artifacts.
func ReadSnapshot(rd io.Reader) ([]Series, error) {
	var doc struct {
		Metrics []Series `json:"metrics"`
	}
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("telemetry: reading snapshot: %w", err)
	}
	return doc.Metrics, nil
}

// WriteJSON writes an indented JSON snapshot ({"metrics": [...]}).
// encoding/json sorts map keys, so the output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Metrics []Series `json:"metrics"`
	}{Metrics: r.Snapshot()}
	if doc.Metrics == nil {
		doc.Metrics = []Series{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
