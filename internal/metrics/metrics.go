// Package metrics is a hand-rolled, stdlib-only metrics registry in the
// Prometheus exposition-format tradition: atomic counters, gauges and
// fixed-bucket histograms, rendered in the text format 0.0.4 that any
// Prometheus-compatible scraper understands.
//
// The package exists so the analysis server (internal/server) can expose
// live traffic and lattice-level health without a dependency outside the
// standard library. Design constraints:
//
//   - Hot-path operations (Inc, Add, Observe) are lock-free atomics;
//     registration and label-child creation take locks but happen once
//     per series, not per request.
//   - Exposition is deterministic: families render in name order, series
//     within a family in label order, so a scrape is diffable and the
//     server tests can assert against a golden subset.
//   - Histograms are fixed-bucket and cumulative, with the conventional
//     `le` labels, `+Inf` bucket, `_sum` and `_count` series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in exposition format.
// The zero value is not useful; use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help, typ string

	mu     sync.Mutex
	series map[string]renderer // label signature → series
}

// renderer is one series' contribution to the exposition.
type renderer interface {
	render(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]renderer{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered twice with types %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) add(labels string, s renderer) renderer {
	f.mu.Lock()
	defer f.mu.Unlock()
	if existing, ok := f.series[labels]; ok {
		return existing
	}
	f.series[labels] = s
	return s
}

// ------------------------------------------------------------- counters

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrease")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter")
	return f.add("", &Counter{}).(*Counter)
}

// CounterVec is a counter family partitioned by a fixed label set.
type CounterVec struct {
	f      *family
	labels []string
}

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter"), labels: labels}
}

// With returns the child counter for the given label values (created on
// first use, cached after).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.add(renderLabels(v.labels, values), &Counter{}).(*Counter)
}

// --------------------------------------------------------------- gauges

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (compare-and-swap loop; gauges are low-frequency).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, want) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge")
	return f.add("", &Gauge{}).(*Gauge)
}

// GaugeVec is a gauge family partitioned by a fixed label set (used for
// info-style metrics such as vrpd_build_info, whose value is a constant
// 1 and whose payload lives in the labels).
type GaugeVec struct {
	f      *family
	labels []string
}

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, "gauge"), labels: labels}
}

// With returns the child gauge for the given label values (created on
// first use, cached after).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.add(renderLabels(v.labels, values), &Gauge{}).(*Gauge)
}

// valueFunc evaluates a callback at scrape time — for derived values
// (ratios over counters, runtime stats) that would be racy or stale as
// stored gauges, and for counts another package keeps.
type valueFunc struct {
	fn func() float64
}

func (g valueFunc) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.fn()))
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, "gauge").add("", valueFunc{fn: fn})
}

// CounterFunc registers a counter whose value is read at scrape time;
// fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, "counter").add("", valueFunc{fn: fn})
}

// ----------------------------------------------------------- histograms

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, want) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) render(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// Histogram registers (or fetches) an unlabelled histogram over the given
// bucket upper bounds (must be sorted ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds not sorted: " + name)
	}
	f := r.family(name, help, "histogram")
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return f.add("", h).(*Histogram)
}

// HistogramVec is a histogram family partitioned by a fixed label set —
// one bucket vector per label combination, all sharing the same bounds
// (vrpd_phase_duration_seconds{phase=...} is the motivating user).
type HistogramVec struct {
	f      *family
	labels []string
	bounds []float64
}

// HistogramVec registers a labelled histogram family over the given
// bucket upper bounds (must be sorted ascending).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds not sorted: " + name)
	}
	return &HistogramVec{
		f:      r.family(name, help, "histogram"),
		labels: labels,
		bounds: append([]float64(nil), bounds...),
	}
}

// With returns the child histogram for the given label values (created
// on first use, cached after).
func (v *HistogramVec) With(values ...string) *Histogram {
	sig := renderLabels(v.labels, values)
	h := &Histogram{bounds: v.bounds}
	h.counts = make([]atomic.Int64, len(v.bounds)+1)
	return v.f.add(sig, h).(*Histogram)
}

// ----------------------------------------------------------- exposition

// WriteText renders every family in Prometheus text format 0.0.4,
// families in name order, series in label order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for s := range f.series {
			sigs = append(sigs, s)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			f.series[sig].render(&b, f.name, sig)
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// ------------------------------------------------------------ rendering

// renderLabels builds the canonical `{k="v",...}` signature. Label names
// must match the values one to one.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// bucketLabels splices the `le` label into an existing signature.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients conventionally
// do: integral values without a decimal point, everything else shortest
// round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
