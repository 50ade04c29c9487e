package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the full text rendering: family ordering by
// name, series ordering by label signature, histogram cumulative buckets
// with +Inf/_sum/_count, and the integer-vs-float formatting rules.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("zz_simple_total", "an unlabelled counter")
	c.Add(41)
	c.Inc()

	v := r.CounterVec("aa_requests_total", "requests by path and code", "path", "code")
	v.With("/v1/analyze", "200").Add(3)
	v.With("/v1/analyze", "429").Inc()
	v.With("/metrics", "200").Inc()

	g := r.Gauge("mm_inflight", "in-flight requests")
	g.Set(2)
	g.Inc()
	g.Dec()

	r.GaugeFunc("mm_ratio", "a derived ratio", func() float64 { return 0.25 })
	r.CounterFunc("mm_read_total", "a count kept elsewhere", func() float64 { return 7 })

	h := r.Histogram("hh_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, o := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(o)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_requests_total requests by path and code
# TYPE aa_requests_total counter
aa_requests_total{path="/metrics",code="200"} 1
aa_requests_total{path="/v1/analyze",code="200"} 3
aa_requests_total{path="/v1/analyze",code="429"} 1
# HELP hh_latency_seconds latency
# TYPE hh_latency_seconds histogram
hh_latency_seconds_bucket{le="0.1"} 1
hh_latency_seconds_bucket{le="1"} 3
hh_latency_seconds_bucket{le="10"} 4
hh_latency_seconds_bucket{le="+Inf"} 5
hh_latency_seconds_sum 56.05
hh_latency_seconds_count 5
# HELP mm_inflight in-flight requests
# TYPE mm_inflight gauge
mm_inflight 2
# HELP mm_ratio a derived ratio
# TYPE mm_ratio gauge
mm_ratio 0.25
# HELP mm_read_total a count kept elsewhere
# TYPE mm_read_total counter
mm_read_total 7
# HELP zz_simple_total an unlabelled counter
# TYPE zz_simple_total counter
zz_simple_total 42
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestHistogramBoundaries pins the bucket rule: an observation equal to a
// bound lands in that bound's bucket (le is an upper inclusive bound).
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "x", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 2`,
		`h_bucket{le="+Inf"} 3`,
		`h_count 3`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestSameSeriesReuse: registering the same family/labels twice returns
// the same underlying series.
func TestSameSeriesReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "h")
	b := r.Counter("c_total", "h")
	if a != b {
		t.Error("Counter registered twice returned distinct series")
	}
	v := r.CounterVec("v_total", "h", "k")
	if v.With("x") != v.With("x") {
		t.Error("CounterVec.With returned distinct children for equal labels")
	}
	if v.With("x") == v.With("y") {
		t.Error("CounterVec.With unified distinct label values")
	}
}

// TestTypeConflictPanics: re-registering a name under a different type is
// a programming error and must fail loudly.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Error("no panic on counter/gauge name conflict")
		}
	}()
	r.Gauge("x", "h")
}

// TestLabelEscaping: label values with quotes, backslashes and newlines
// must not corrupt the exposition.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("e_total", "h", "p").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `e_total{p="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", b.String())
	}
}

// TestConcurrentUpdates exercises the lock-free paths under the race
// detector: parallel Inc/Observe/With must neither race nor lose counts.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "h")
	v := r.CounterVec("vv_total", "h", "i")
	g := r.Gauge("gg", "h")
	h := r.Histogram("hh", "h", []float64{1, 10, 100})

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%2))
			for i := 0; i < per; i++ {
				c.Inc()
				v.With(lbl).Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*per {
		t.Errorf("vec total = %d, want %d", got, workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %f, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// TestHandler serves the exposition with the conventional content type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestFormatFloat pins the integer shortcut and the shortest-round-trip
// fallback.
func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {3, "3"}, {-2, "-2"}, {0.5, "0.5"}, {1e15, "1e+15"},
		{math.Inf(1), "+Inf"},
	} {
		got := formatFloat(tc.in)
		if tc.in == math.Inf(1) {
			// strconv renders +Inf; accept either spelling used by scrapers.
			if got != "+Inf" && got != "Inf" {
				t.Errorf("formatFloat(+Inf) = %q", got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestGaugeVec: labelled gauges render per label signature, and With
// returns the same child for the same values (info-gauge pattern).
func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("build_info", "build identity", "version", "goversion")
	v.With("v1.2.3", "go1.22").Set(1)
	if v.With("v1.2.3", "go1.22") != v.With("v1.2.3", "go1.22") {
		t.Error("With must return the cached child for equal label values")
	}
	v.With("v9.9.9", "go1.22").Set(1)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP build_info build identity
# TYPE build_info gauge
build_info{version="v1.2.3",goversion="go1.22"} 1
build_info{version="v9.9.9",goversion="go1.22"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestHistogramVec: per-label bucket vectors share bounds, splice `le`
// after the series labels, and keep independent counts.
func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("phase_seconds", "per-phase latency", []float64{0.1, 1}, "phase")
	v.With("parse").Observe(0.05)
	v.With("vrp").Observe(0.5)
	v.With("vrp").Observe(5)
	if v.With("vrp") != v.With("vrp") {
		t.Error("With must return the cached child for equal label values")
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP phase_seconds per-phase latency
# TYPE phase_seconds histogram
phase_seconds_bucket{phase="parse",le="0.1"} 1
phase_seconds_bucket{phase="parse",le="1"} 1
phase_seconds_bucket{phase="parse",le="+Inf"} 1
phase_seconds_sum{phase="parse"} 0.05
phase_seconds_count{phase="parse"} 1
phase_seconds_bucket{phase="vrp",le="0.1"} 0
phase_seconds_bucket{phase="vrp",le="1"} 1
phase_seconds_bucket{phase="vrp",le="+Inf"} 2
phase_seconds_sum{phase="vrp"} 5.5
phase_seconds_count{phase="vrp"} 2
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestHistogramVecUnsortedPanics mirrors the unlabelled constructor's
// sorted-bounds contract.
func TestHistogramVecUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("HistogramVec with unsorted bounds did not panic")
		}
	}()
	NewRegistry().HistogramVec("bad", "unsorted", []float64{1, 0.1}, "phase")
}
