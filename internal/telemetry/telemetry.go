// Package telemetry is the instrumentation layer of the analysis
// pipeline: deterministic per-function counters, histograms and the
// prediction-quality digest aggregated into a Snapshot (this file and
// quality.go), and the request-scoped span tree that is the pipeline's
// only timeline, exportable as Chrome trace_event JSON (span.go).
//
// Two properties shape the design:
//
//   - Disabled telemetry costs zero allocations on the engine hot path.
//     The engine holds a *RunMetrics that is nil when telemetry is off;
//     every recording method nil-checks its receiver and the methods are
//     small enough to inline, so the disabled path compiles down to a
//     compare-and-skip (TestDisabledRunMetricsZeroAlloc pins this).
//   - Enabled telemetry is bit-identical across worker counts. Counters
//     are written into per-function slots owned by the task analyzing
//     that function (the same discipline the driver uses for results and
//     diagnostics), so completion order never shows. The one
//     nondeterministic part is the lattice table-warmth counters
//     (per-worker intern tables make hit/miss traffic depend on the
//     work-stealing schedule); Snapshot.Canon zeroes them so tests can
//     compare everything else with reflect.DeepEqual. Wall-clock time
//     lives only on spans.
//
// The package deliberately depends on the standard library only: the
// driver translates IR-level observations (range widths, diagnostics)
// into plain labels before they arrive here.
package telemetry

import (
	"fmt"
	"strings"
)

// RunMetrics counts the work of one engine run. The engine increments it
// through the nil-guarded methods below; the driver folds completed runs
// into the function's FuncMetrics slot. A nil *RunMetrics is the disabled
// state and every method is a no-op on it.
type RunMetrics struct {
	Steps      int64 // worklist items processed
	FlowPushes int64 // CFG-edge worklist insertions
	SSAPushes  int64 // SSA-edge worklist insertions
	FlowPeak   int64 // peak CFG worklist depth
	SSAPeak    int64 // peak SSA worklist depth
	PhiMerges  int64 // weighted φ-merges evaluated
	Widens     int64 // range-set widenings (MaxEvals ⊥-widens + set-cap merges)
	DeriveHits int64 // loop φs matched by a derivation template
	DeriveMiss int64 // derivation attempts that fell back to brute force
	Asserts    int64 // assertion (π-node) refinements applied

	// Precision-flow counters for the quality ledger: φ-merges whose
	// result hull was strictly coarser than every informative input, and
	// π-refinements that strictly narrowed their parent value.
	PhiHulls       int64
	AssertTightens int64

	LatticeCounters
}

// LatticeCounters is the hash-cons and memo traffic of one run's range
// calculator: intern table lookups that found an existing representative
// vs. created one, transfer-function memo hits vs. recomputations, intern
// lookups that needed no range-walk confirm, and loop-header φ merge-memo
// traffic. Unlike every other counter these are table-warmth
// measurements, so they depend on which worker's table served the lookup:
// Canon zeroes them (see Snapshot.Canon). Embedded last in RunMetrics, so
// its fields stay promoted and keep their place in the JSON key order.
type LatticeCounters struct {
	InternHits    int64
	InternMiss    int64
	MemoHits      int64
	MemoMisses    int64
	ConfirmSkips  int64
	MergeMemoHits int64
	MergeMemoMiss int64
}

// PushFlow records a CFG worklist insertion at the given queue depth.
func (m *RunMetrics) PushFlow(depth int) {
	if m == nil {
		return
	}
	m.FlowPushes++
	if int64(depth) > m.FlowPeak {
		m.FlowPeak = int64(depth)
	}
}

// PushSSA records an SSA worklist insertion at the given queue depth.
func (m *RunMetrics) PushSSA(depth int) {
	if m == nil {
		return
	}
	m.SSAPushes++
	if int64(depth) > m.SSAPeak {
		m.SSAPeak = int64(depth)
	}
}

// PhiMerge records one weighted φ-merge evaluation.
func (m *RunMetrics) PhiMerge() {
	if m != nil {
		m.PhiMerges++
	}
}

// Widen records one range-set widening.
func (m *RunMetrics) Widen() {
	if m != nil {
		m.Widens++
	}
}

// AddWidens folds externally counted widenings (the range calculator's
// set-cap merges) into the run.
func (m *RunMetrics) AddWidens(n int64) {
	if m != nil {
		m.Widens += n
	}
}

// Assert records one assertion (π-node) refinement application.
func (m *RunMetrics) Assert() {
	if m != nil {
		m.Asserts++
	}
}

// PhiHull records one φ-merge that coarsened its inputs' hulls — a
// precision-loss event in the quality ledger.
func (m *RunMetrics) PhiHull() {
	if m != nil {
		m.PhiHulls++
	}
}

// AssertTighten records one π-refinement that strictly narrowed its
// parent — the quality ledger's precision-gain entry.
func (m *RunMetrics) AssertTighten() {
	if m != nil {
		m.AssertTightens++
	}
}

// AddLattice folds the range calculator's hash-cons and memo counters
// into the run.
func (m *RunMetrics) AddLattice(lc LatticeCounters) {
	if m == nil {
		return
	}
	m.LatticeCounters.add(&lc)
}

// add sums another run's counters into m; peak fields take the maximum.
// It is the one field-sum behind both FuncMetrics.fold and addTotals.
func (m *RunMetrics) add(o *RunMetrics) {
	m.Steps += o.Steps
	m.FlowPushes += o.FlowPushes
	m.SSAPushes += o.SSAPushes
	m.FlowPeak = max(m.FlowPeak, o.FlowPeak)
	m.SSAPeak = max(m.SSAPeak, o.SSAPeak)
	m.PhiMerges += o.PhiMerges
	m.Widens += o.Widens
	m.DeriveHits += o.DeriveHits
	m.DeriveMiss += o.DeriveMiss
	m.Asserts += o.Asserts
	m.PhiHulls += o.PhiHulls
	m.AssertTightens += o.AssertTightens
	m.LatticeCounters.add(&o.LatticeCounters)
}

func (l *LatticeCounters) add(o *LatticeCounters) {
	l.InternHits += o.InternHits
	l.InternMiss += o.InternMiss
	l.MemoHits += o.MemoHits
	l.MemoMisses += o.MemoMisses
	l.ConfirmSkips += o.ConfirmSkips
	l.MergeMemoHits += o.MergeMemoHits
	l.MergeMemoMiss += o.MergeMemoMiss
}

// FuncMetrics aggregates every run of one function across all passes.
// Counter fields add; peak fields take the maximum over runs.
type FuncMetrics struct {
	Func     string // function name
	Runs     int64  // engine runs (including degraded ones)
	Skips    int64  // cache-skip hits (bit-identical inputs, run elided)
	Degraded int64  // runs replaced by the ⊥/heuristic fallback
	RunMetrics
}

// fold accumulates one run into the aggregate.
func (f *FuncMetrics) fold(m *RunMetrics) {
	f.Runs++
	f.RunMetrics.add(m)
}

// addTotals accumulates another aggregate (for the snapshot's Totals row).
func (f *FuncMetrics) addTotals(o *FuncMetrics) {
	f.Runs += o.Runs
	f.Skips += o.Skips
	f.Degraded += o.Degraded
	f.RunMetrics.add(&o.RunMetrics)
}

// Histogram is a labelled counter vector. Labels are fixed at creation;
// Add is bounds-clamped into the last bucket so callers can use open-ended
// top buckets ("8+").
type Histogram struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
	Counts []int64  `json:"counts"`
}

// NewHistogram creates an empty histogram over the given bucket labels.
func NewHistogram(name string, labels ...string) *Histogram {
	return &Histogram{Name: name, Labels: labels, Counts: make([]int64, len(labels))}
}

// Add increments bucket i, clamping into the final bucket.
func (h *Histogram) Add(i int) {
	if len(h.Counts) == 0 {
		return
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteString(h.Name)
	b.WriteString(":")
	for i, l := range h.Labels {
		if h.Counts[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", l, h.Counts[i])
	}
	return b.String()
}

// Recorder collects one analysis run's counters into per-function
// slots. During a parallel wave each slot is touched only by the task
// analyzing that function, so no synchronization is needed — the same
// discipline the driver uses for results and diagnostics. A nil
// *Recorder is the disabled state: the driver never calls into it and
// hands the engine a nil *RunMetrics. A Recorder must not be shared
// between concurrent analysis runs; Begin resets it.
type Recorder struct {
	funcs []FuncMetrics
}

// New returns an empty enabled Recorder.
func New() *Recorder { return &Recorder{} }

// Begin (re)initializes the recorder for a run over the named functions,
// indexed by call-graph function index.
func (r *Recorder) Begin(funcNames []string) {
	r.funcs = make([]FuncMetrics, len(funcNames))
	for i, n := range funcNames {
		r.funcs[i].Func = n
	}
}

// EndRun folds a completed engine run into function fi's slot. outcome
// is "ok", "degraded:panic", "degraded:step-budget" or "cancelled".
func (r *Recorder) EndRun(fi int, m *RunMetrics, outcome string) {
	r.funcs[fi].fold(m)
	if strings.HasPrefix(outcome, "degraded") {
		r.funcs[fi].Degraded++
	}
}

// Skip records a cache-skip hit: the function's interprocedural inputs
// were bit-identical to its previous run, so the engine was not re-run.
func (r *Recorder) Skip(fi int) { r.funcs[fi].Skips++ }

// Snapshot is the aggregated result of a run. All fields except the
// interner gauges and table-warmth counters (see Canon) are
// deterministic: identical for every worker count.
type Snapshot struct {
	// Funcs holds per-function aggregates in call-graph index order.
	Funcs []FuncMetrics `json:"funcs"`
	// Totals sums Funcs (peaks: maxima). Totals.Func is "".
	Totals FuncMetrics `json:"totals"`

	// BoundaryDrops counts symbolic values collapsed to ⊥ while crossing
	// a function boundary (interprocedural sanitization) — lattice
	// precision lost to the single-ancestor representation.
	BoundaryDrops int64 `json:"boundary_drops"`

	// Interner state at the end of the run, summed over the driver's
	// per-worker cons tables: live distinct values, slab bytes held by
	// the run's tables (rewound slabs included: a pooled table keeps its
	// arena across resets), and entries dropped by memo epoch evictions
	// and table resets over the tables' lifetimes. Like the intern/memo
	// traffic counters these depend on the work-stealing schedule (which
	// worker's table absorbed which SCC), so Canon zeroes them.
	InternLive       int64 `json:"intern_live"`
	InternArenaBytes int64 `json:"intern_arena_bytes"`
	InternEvictions  int64 `json:"intern_evictions"`

	// RangeSetSize buckets every final register value by lattice level
	// and range-set cardinality; RangeSpan buckets Set values by their
	// widest numeric range; PassRuns buckets functions by how many passes
	// actually re-ran their engine (the pass-count histogram).
	RangeSetSize *Histogram `json:"range_set_size,omitempty"`
	RangeSpan    *Histogram `json:"range_span,omitempty"`
	PassRuns     *Histogram `json:"pass_runs,omitempty"`

	// Quality is the prediction-quality digest (cell classes and widths,
	// the precision-loss ledger, per-branch evidence attribution and
	// per-function scores), built by the driver from the final results.
	// Fully deterministic — Canon clones it unchanged.
	Quality *Quality `json:"quality,omitempty"`
}

// Snapshot copies the recorder's slots into its deterministic aggregate.
// The driver fills the histogram and BoundaryDrops fields afterwards
// (they need IR-level context this package does not depend on).
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{Funcs: append([]FuncMetrics(nil), r.funcs...)}
	for i := range s.Funcs {
		s.Totals.addTotals(&s.Funcs[i])
	}
	return s
}

// Canon returns a deep copy with every schedule-dependent field zeroed,
// leaving exactly the data that must be bit-identical across worker
// counts. The zeroed fields are the lattice table-warmth counters
// (intern/memo hit-miss traffic, confirm skips, merge-memo traffic, and
// the end-of-run interner state), which became schedule-dependent
// when intern tables moved from per-SCC to per-worker ownership: with
// work stealing, which table serves a lookup — and therefore whether it
// hits — depends on the schedule. Analysis results, Stats, and every
// other counter remain bit-identical: interning only dedups bit-equal
// values and the memos replay their counter deltas exactly.
func (s *Snapshot) Canon() *Snapshot {
	c := *s
	c.Funcs = append([]FuncMetrics(nil), s.Funcs...)
	for i := range c.Funcs {
		c.Funcs[i].LatticeCounters = LatticeCounters{}
	}
	c.Totals.LatticeCounters = LatticeCounters{}
	c.InternLive = 0
	c.InternArenaBytes = 0
	c.InternEvictions = 0
	c.RangeSetSize = s.RangeSetSize.clone()
	c.RangeSpan = s.RangeSpan.clone()
	c.PassRuns = s.PassRuns.clone()
	c.Quality = s.Quality.clone()
	return &c
}

func (h *Histogram) clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		Name:   h.Name,
		Labels: append([]string(nil), h.Labels...),
		Counts: append([]int64(nil), h.Counts...),
	}
}

// Summary renders a compact human-readable digest of the snapshot.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	t := &s.Totals
	fmt.Fprintf(&b, "telemetry: %d funcs\n", len(s.Funcs))
	fmt.Fprintf(&b, "  engine: steps=%d flow-pushes=%d (peak %d) ssa-pushes=%d (peak %d)\n",
		t.Steps, t.FlowPushes, t.FlowPeak, t.SSAPushes, t.SSAPeak)
	fmt.Fprintf(&b, "  lattice: phi-merges=%d widens=%d asserts=%d derive-hits=%d derive-misses=%d boundary-drops=%d\n",
		t.PhiMerges, t.Widens, t.Asserts, t.DeriveHits, t.DeriveMiss, s.BoundaryDrops)
	fmt.Fprintf(&b, "  interning: intern-hits=%d intern-misses=%d memo-hits=%d memo-misses=%d confirm-skips=%d merge-memo=%d/%d\n",
		t.InternHits, t.InternMiss, t.MemoHits, t.MemoMisses, t.ConfirmSkips, t.MergeMemoHits, t.MergeMemoMiss)
	if s.InternLive > 0 || s.InternEvictions > 0 {
		fmt.Fprintf(&b, "  interner: live=%d arena-bytes=%d evictions=%d\n",
			s.InternLive, s.InternArenaBytes, s.InternEvictions)
	}
	fmt.Fprintf(&b, "  driver: runs=%d skips=%d degraded=%d\n", t.Runs, t.Skips, t.Degraded)
	for _, h := range []*Histogram{s.RangeSetSize, s.RangeSpan, s.PassRuns} {
		if h != nil && h.Total() > 0 {
			fmt.Fprintf(&b, "  %s\n", h.String())
		}
	}
	return b.String()
}
