// Package telemetry is the instrumentation layer of the analysis
// pipeline: deterministic per-function counters, histograms and the
// prediction-quality digest aggregated into a Snapshot (this file and
// quality.go), and the request-scoped span tree that is the pipeline's
// only timeline, exportable as Chrome trace_event JSON (span.go).
//
// Two properties shape the design:
//
//   - Counting is always on and happens once. The engine increments
//     its run's effort record (vrp.Effort, which embeds RunMetrics)
//     whether or not telemetry is enabled, the driver sums those records
//     into per-function slots for Stats, and a funcstore splice replays a
//     stored record — so Stats, the Snapshot and the quality ledger can
//     never disagree, warm or cold. Enabling telemetry (a non-nil
//     *Recorder) only assembles the Snapshot and quality digest from the
//     slots after the run, and adds pprof labels to engine runs.
//   - The Snapshot is bit-identical across worker counts. Each slot is
//     written only by the task analyzing that function (the same
//     discipline the driver uses for results and diagnostics), so
//     completion order never shows. The one nondeterministic part is the
//     lattice table-warmth counters (per-worker intern tables make
//     hit/miss traffic depend on the work-stealing schedule); Snapshot.Canon
//     zeroes them so tests can compare everything else with
//     reflect.DeepEqual. Wall-clock time lives only on spans.
//
// The package deliberately depends on the standard library only: the
// driver translates IR-level observations (range widths, diagnostics)
// into plain labels before they arrive here.
package telemetry

import (
	"fmt"
	"strings"
)

// RunMetrics is the deterministic counter block of one function's
// engine work: the analysis driver's per-run effort record (vrp.Effort)
// embeds it, the engine increments it directly, and a funcstore splice
// replays it, so every view of these counters — Stats, the Snapshot, the
// quality ledger, vrpd's /metrics — reads one count.
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
}

// Add sums another record's counters into m; peak fields take the
// maximum.
func (m *RunMetrics) Add(o *RunMetrics) {
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
}

// LatticeCounters is the hash-cons and memo traffic of a function's range
// calculators: intern table lookups that found an existing representative
// vs. created one, and transfer-function memo hits vs. recomputations.
// Unlike RunMetrics these are table-warmth measurements, so they
// depend on which worker's table served the lookup: they are counted live
// only (a splice never replays them) and Canon zeroes them (see
// Snapshot.Canon).
type LatticeCounters struct {
	InternHits int64
	InternMiss int64
	MemoHits   int64
	MemoMisses int64
}

// add sums another function's traffic into l.
func (l *LatticeCounters) add(o *LatticeCounters) {
	l.InternHits += o.InternHits
	l.InternMiss += o.InternMiss
	l.MemoHits += o.MemoHits
	l.MemoMisses += o.MemoMisses
}

// FuncMetrics aggregates every run of one function across all passes.
// Counter fields add; peak fields take the maximum over runs. The
// embedded blocks flatten into the JSON object in declaration order.
type FuncMetrics struct {
	Func     string // function name
	Runs     int64  // engine runs and store splices (including degraded runs)
	Skips    int64  // cache-skip hits (bit-identical inputs, run elided)
	Degraded int64  // runs replaced by the ⊥/heuristic fallback
	RunMetrics
	LatticeCounters
}

// addTotals accumulates another aggregate (for the snapshot's Totals row).
func (f *FuncMetrics) addTotals(o *FuncMetrics) {
	f.Runs += o.Runs
	f.Skips += o.Skips
	f.Degraded += o.Degraded
	f.RunMetrics.Add(&o.RunMetrics)
	f.LatticeCounters.add(&o.LatticeCounters)
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

// Recorder switches telemetry on: a non-nil *Recorder in the analysis
// Config makes the driver assemble a Snapshot (and the quality digest)
// from the per-function counters it keeps for Stats anyway, and run each
// engine under pprof labels. It holds no state, so one Recorder may serve
// any number of runs, concurrent ones included.
type Recorder struct{}

// New returns a Recorder.
func New() *Recorder { return &Recorder{} }

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
	// and range-set cardinality (summed from the functions' quality
	// censuses); PassRuns buckets functions by how many passes ran their
	// engine or spliced a stored run (the pass-count histogram).
	RangeSetSize *Histogram `json:"range_set_size,omitempty"`
	PassRuns     *Histogram `json:"pass_runs,omitempty"`

	// Quality is the prediction-quality digest (cell classes and widths,
	// the precision-loss ledger, per-branch evidence attribution and
	// per-function scores), built by the driver from the final results.
	// Fully deterministic — Canon clones it unchanged.
	Quality *Quality `json:"quality,omitempty"`
}

// NewSnapshot aggregates per-function counters, given in call-graph
// index order, into a Snapshot. The driver fills the histogram,
// BoundaryDrops and interner fields afterwards (they need IR-level
// context this package does not depend on).
func NewSnapshot(funcs []FuncMetrics) *Snapshot {
	s := &Snapshot{Funcs: funcs}
	for i := range s.Funcs {
		s.Totals.addTotals(&s.Funcs[i])
	}
	return s
}

// Canon returns a deep copy with every schedule-dependent field zeroed,
// leaving exactly the data that must be bit-identical across worker
// counts. The zeroed fields are the lattice table-warmth counters
// (intern and transfer-memo hit-miss traffic, and the end-of-run
// interner state), which became schedule-dependent
// when intern tables moved from per-SCC to per-worker ownership: with
// work stealing, which table serves a lookup — and therefore whether it
// hits — depends on the schedule. Analysis results, Stats, and every
// other counter remain bit-identical: interning only dedups bit-equal
// values and the transfer memo replays its counter deltas exactly.
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
	fmt.Fprintf(&b, "  interning: intern-hits=%d intern-misses=%d memo-hits=%d memo-misses=%d\n",
		t.InternHits, t.InternMiss, t.MemoHits, t.MemoMisses)
	if s.InternLive > 0 || s.InternEvictions > 0 {
		fmt.Fprintf(&b, "  interner: live=%d arena-bytes=%d evictions=%d\n",
			s.InternLive, s.InternArenaBytes, s.InternEvictions)
	}
	fmt.Fprintf(&b, "  driver: runs=%d skips=%d degraded=%d\n", t.Runs, t.Skips, t.Degraded)
	for _, h := range []*Histogram{s.RangeSetSize, s.PassRuns} {
		if h != nil && h.Total() > 0 {
			fmt.Fprintf(&b, "  %s\n", h.String())
		}
	}
	return b.String()
}
