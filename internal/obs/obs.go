// Package obs is the observability layer: a dependency-free metrics
// registry with atomic counters, gauges and fixed-bucket latency
// histograms, exposed in the Prometheus text format. The paper's whole
// evaluation (§5, Figures 6–11, Table 4) is about measured per-stage
// latency and throughput; obs turns those same measurements into
// runtime metrics any scraper can pull from a live deployment, instead
// of numbers that die inside a SlideReport.
//
// Components own their metrics and register them here; pull-style
// metrics (CounterFunc, GaugeFunc) sample an existing stats snapshot at
// scrape time, so already-synchronized counters need no second home.
// The registry itself is safe for concurrent registration, updates and
// scrapes.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels is an optional set of constant label pairs attached to a
// metric at registration time.
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, for latencies). Buckets are cumulative at exposition, in
// the Prometheus style.
type Histogram struct {
	bounds []float64       // upper bounds, sorted ascending
	counts []atomic.Uint64 // one per bound, plus a final +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefBuckets spans 100 µs to 10 s — the per-slide stage costs of the
// paper's Figures 6–11 all land inside this range at every scale the
// harness runs.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind discriminates the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one registered metric instance (a label combination of a
// family). Exactly one of the value fields is set.
type sample struct {
	labels string // pre-rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // pull-style counter or gauge
}

// family groups every label combination of one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples map[string]*sample // by rendered label string
}

// Registry holds metric families and renders them on demand.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the sample slot for name+labels, creating the family
// and slot as needed (init populates a fresh slot while the registry
// lock is held, so a concurrent get-or-create never sees a half-built
// sample). It panics on a kind mismatch — that is a wiring bug, not a
// runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels, init func(*sample)) *sample {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]*sample)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if s, ok := f.samples[key]; ok {
		return s
	}
	s := &sample{labels: key}
	init(s)
	f.samples[key] = s
	return s
}

// Counter returns the counter for name+labels, creating it on first
// use. Repeated registration with the same name and labels returns the
// same counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.lookup(name, help, kindCounter, labels, func(s *sample) {
		s.c = &Counter{}
	}).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func(s *sample) {
		s.g = &Gauge{}
	}).g
}

// Histogram returns the histogram for name+labels, creating it with
// the given bucket bounds on first use (nil buckets: DefBuckets).
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, labels, func(s *sample) {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).h
}

// CounterFunc registers a pull-style counter sampled at scrape time;
// fn must be safe to call from any goroutine and should be
// monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, kindCounter, labels, func(s *sample) { s.fn = fn })
}

// GaugeFunc registers a pull-style gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.lookup(name, help, kindGauge, labels, func(s *sample) { s.fn = fn })
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (families sorted by name, samples by label set).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		// Samples are read under the registry lock only for map shape
		// (its length included: a first-use Counter call inserts
		// concurrently); values are atomics or pull funcs, safe without it.
		r.mu.RLock()
		keys := make([]string, 0, len(f.samples))
		for k := range f.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		samples := make([]*sample, 0, len(keys))
		for _, k := range keys {
			samples = append(samples, f.samples[k])
		}
		r.mu.RUnlock()
		for _, s := range samples {
			writeSample(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one metric instance.
func writeSample(b *strings.Builder, f *family, s *sample) {
	switch {
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
	case s.c != nil:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.labels, s.c.Value())
	case s.g != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
	case s.h != nil:
		cum := uint64(0)
		for i, bound := range s.h.bounds {
			cum += s.h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, formatFloat(bound)), cum)
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, withLE(s.labels, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
	}
}

// withLE merges the le bucket label into a pre-rendered label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// renderLabels produces the canonical {k="v",...} form, keys sorted.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// The text format's escapes, built once: a Replacer is safe for
// concurrent use.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// escapeLabel escapes a label value per the text-format rules.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// escapeHelp escapes a HELP string.
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
