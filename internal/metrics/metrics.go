// Package metrics is a dependency-free Prometheus exporter: a Registry
// of counter, gauge and histogram families rendered in the Prometheus
// text exposition format 0.0.4 at GET /metricsz. It implements only
// what this repository scrapes — no client library, no push gateway,
// no protobuf — so the module keeps its zero-dependency guarantee while
// any off-the-shelf Prometheus server can collect a soprocd replica or
// coordinator.
//
// Each counter and gauge is declared once, as struct tags on the field
// of the Stats snapshot that /statsz serializes; RegisterStats turns
// those tags into families that read the snapshot at scrape time, so
// the instrumented hot paths gain no writes. The one live instrument is
// Histogram, which the engine's per-point latency histogram uses.
//
// The package also carries the decision-trace ring (DecisionLog): a
// bounded in-memory log of per-point routing decisions exposed at
// GET /v1/trace. Aggregate counters serve dashboards; per-request
// records serve audits.
//
// ParseText parses the text format back into families, and Lint holds
// a page to the repository's naming contract; the serve package's
// format test and cmd/soload -lint-metrics run every page through
// both.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as declared on its # TYPE line.
type Kind string

// The metric kinds this exporter can expose.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// label is one name="value" pair attached to a sample; rendering
// escapes the value's \, " and newlines.
type label struct{ name, value string }

// sample is one rendered line of a family: an optional suffix
// (histograms emit _bucket/_sum/_count), labels, and a value.
type sample struct {
	suffix string
	labels []label
	value  float64
}

// family is one named metric family and its scrape-time collector.
type family struct {
	name, help string
	kind       Kind
	collect    func(emit func(sample))
}

// Registry holds metric families and renders them in the text
// exposition format. The zero value is not usable; construct with
// NewRegistry. Registration (Histogram, RegisterStats) panics on a
// duplicate or invalid name — a registration error is a programming
// error, caught by the first test that registers the family — and is
// safe for concurrent use, as is rendering.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// identifier: [a-zA-Z_][a-zA-Z0-9_]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs a family, panicking on duplicate or invalid names.
func (r *Registry) register(name, help string, kind Kind, collect func(emit func(sample))) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.families[name] = &family{name: name, help: help, kind: kind, collect: collect}
}

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a live cumulative histogram with fixed bucket upper
// bounds. Observe is safe for concurrent use and lock-free.
type Histogram struct {
	uppers []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Histogram registers and returns a live histogram with the given
// bucket upper bounds (sorted ascending; the +Inf bucket is implicit).
// It panics if buckets is empty or unsorted.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	uppers := append([]float64(nil), buckets...)
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	h := &Histogram{uppers: uppers, counts: make([]atomic.Uint64, len(uppers))}
	r.register(name, help, KindHistogram, func(emit func(sample)) {
		var cum uint64
		for i, ub := range h.uppers {
			cum += h.counts[i].Load()
			emit(sample{suffix: "_bucket", labels: []label{{"le", formatValue(ub)}}, value: float64(cum)})
		}
		total := h.count.Load()
		emit(sample{suffix: "_bucket", labels: []label{{"le", "+Inf"}}, value: float64(total)})
		emit(sample{suffix: "_sum", value: math.Float64frombits(h.sum.Load())})
		emit(sample{suffix: "_count", value: float64(total)})
	})
	return h
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out. Integral
// values render without a decimal point, which keeps shell assertions
// in CI (string equality on counter values) simple.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// render renders all families into b, sorted by name so output is
// deterministic for a fixed set of values.
func (r *Registry) render(w *strings.Builder) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		f.collect(func(s sample) {
			w.WriteString(f.name)
			w.WriteString(s.suffix)
			if len(s.labels) > 0 {
				w.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						w.WriteByte(',')
					}
					w.WriteString(l.name)
					w.WriteString(`="`)
					w.WriteString(escapeLabel(l.value))
					w.WriteByte('"')
				}
				w.WriteByte('}')
			}
			w.WriteByte(' ')
			w.WriteString(formatValue(s.value))
			w.WriteByte('\n')
		})
	}
}

// Text renders the registry as a string in the Prometheus text
// exposition format 0.0.4.
func (r *Registry) Text() string {
	var b strings.Builder
	r.render(&b)
	return b.String()
}

// ContentType is the Content-Type header value for the text exposition
// format this package renders.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as a scrape
// endpoint (GET /metricsz).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		fmt.Fprint(w, r.Text())
	})
}
