package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Quality is the prediction-quality digest of one analysis run: where
// range information ended up (cell classes and widths), where precision
// was created or destroyed (the loss ledger), and what evidence backed
// every emitted branch probability. The driver builds it single-threaded
// at snapshot time from the final results, so — unlike the wall-clock
// fields around it — every field is bit-identical across worker counts
// and Canon clones it without zeroing anything.
//
// Loss-ledger keys (see DESIGN.md §3.12 for semantics):
//
//	widen          MaxEvals/set-cap widenings (ranges forced coarser)
//	recursion-pin  interprocedural slots pinned by recursion widening
//	demotion       optimistic ⊤ cells demoted to ⊥ on non-convergence
//	phi-hull       φ-merges whose result hull is coarser than every input
//	assert-tighten π-refinements that strictly narrowed their parent —
//	               the ledger's negative (precision *gained*) entry
//
// Evidence keys: "range" and "default" for range-derived and
// never-evaluated branches; for heuristic fallbacks, the name of each
// Ball–Larus heuristic that fired, plus "dempster-shafer" when two or
// more were combined and "uniform" when none applied (P = 0.5). When no
// evidence hook is configured, heuristic branches count under
// "heuristic".
type Quality struct {
	// Classes buckets every final register cell by ValueClass label
	// (point/narrow/wide/symbolic/top/bottom/infeasible); Width buckets
	// the measurable cells by log₂ hull width.
	Classes *Histogram `json:"classes"`
	Width   *Histogram `json:"width"`

	// Confidence buckets every emitted branch probability by
	// max(p, 1−p), the prediction's distance from a coin flip.
	Confidence *Histogram `json:"confidence"`

	// Evidence attributes every emitted branch probability to its
	// predictor(s); Loss is the precision ledger keyed by cause.
	Evidence map[string]int64 `json:"evidence"`
	Loss     map[string]int64 `json:"loss"`

	// Branches counts emitted predictions; Certain the range-derived
	// P ∈ {0, 1} subset; StaleCertain the certains that survived from a
	// pre-demotion pass and were re-derived from heuristics (0 on every
	// converged run — and, post-fix, on demoted runs too).
	Branches     int64 `json:"branches"`
	Certain      int64 `json:"certain"`
	StaleCertain int64 `json:"stale_certain"`

	// CertainRatio is Certain/Branches; MeanLog2Width the mean
	// log₂(hullWidth+1) over measurable cells (points contribute 0).
	CertainRatio  float64 `json:"certain_ratio"`
	MeanLog2Width float64 `json:"mean_log2_width"`

	// Funcs holds per-function quality rows in call-graph index order.
	Funcs []FuncQuality `json:"funcs"`
}

// FuncQuality is one function's quality row.
type FuncQuality struct {
	Func string `json:"func"`

	// Final-cell class counts.
	Cells      int64 `json:"cells"`
	Point      int64 `json:"point"`
	Narrow     int64 `json:"narrow"`
	Wide       int64 `json:"wide"`
	Symbolic   int64 `json:"symbolic"`
	Bottom     int64 `json:"bottom"`
	Top        int64 `json:"top"`
	Infeasible int64 `json:"infeasible"`

	// Branch prediction provenance counts.
	Branches     int64 `json:"branches"`
	Range        int64 `json:"range"`
	Heuristic    int64 `json:"heuristic"`
	Default      int64 `json:"default"`
	Certain      int64 `json:"certain"`
	StaleCertain int64 `json:"stale_certain"`

	// Score collapses the row to one number in [0, 1]: the mean branch
	// evidence weight (range-certain 1.0, range 0.7, heuristic 0.4,
	// default 0.0). 0 for functions without conditional branches.
	Score float64 `json:"score"`
}

// Quality histogram bucket labels. Confidence buckets are right-open
// except the exact-certainty bucket; widths are log₂ buckets of
// hullWidth+1, clamped into the last bucket.
var (
	QualityClassLabels      = []string{"point", "narrow", "wide", "symbolic", "top", "bottom", "infeasible"}
	QualityWidthLabels      = []string{"point", "≤2", "≤4", "≤8", "≤16", "≤32", "≤64", "≤128", "≤256", "≤1Ki", "≤4Ki", "≤64Ki", ">64Ki"}
	QualityConfidenceLabels = []string{"=1", "≥0.99", "≥0.95", "≥0.9", "≥0.8", "≥0.7", "≥0.6", "≥0.5"}
)

// NewQuality returns an empty Quality with its histograms allocated.
func NewQuality() *Quality {
	return &Quality{
		Classes:    NewHistogram("cell-classes", QualityClassLabels...),
		Width:      NewHistogram("hull-width-log2", QualityWidthLabels...),
		Confidence: NewHistogram("branch-confidence", QualityConfidenceLabels...),
		Evidence:   map[string]int64{},
		Loss:       map[string]int64{},
	}
}

// WidthBucket maps a hull width to its QualityWidthLabels index.
func WidthBucket(w int64) int {
	if w <= 0 {
		return 0
	}
	bounds := []int64{2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 65536}
	for i, b := range bounds {
		if w <= b {
			return i + 1
		}
	}
	return len(bounds) + 1
}

// ConfidenceBucket maps a branch probability to its
// QualityConfidenceLabels index via max(p, 1−p).
func ConfidenceBucket(p float64) int {
	c := p
	if c < 0.5 {
		c = 1 - c
	}
	switch {
	case c >= 1:
		return 0
	case c >= 0.99:
		return 1
	case c >= 0.95:
		return 2
	case c >= 0.9:
		return 3
	case c >= 0.8:
		return 4
	case c >= 0.7:
		return 5
	case c >= 0.6:
		return 6
	}
	return 7
}

// FuncCensus is one function's share of the digest: its row (Func left
// to the caller: one funcstore record may serve functions of any name)
// and the counts of its final cells and branches. The driver takes it in
// one walk of the function's values and one of its branches and settles
// it with the function's other post-fixpoint work, so a digest is the
// sum of its functions' censuses plus the run-level loss ledger.
type FuncCensus struct {
	Row        FuncQuality
	Width      [13]int64 // QualityWidthLabels counts of the measurable cells
	Confidence [8]int64  // QualityConfidenceLabels counts of the branches
	SetSize    [8]int64  // range-set-size counts of the cells: ⊤, ⊥, ∅, 1, 2, 3, 4, 5+
	Log2Width  float64   // Σ log₂(hullWidth+1) over the measurable cells

	// Evidence tallies the branches' Quality.Evidence keys in first-seen
	// order.
	Evidence []EvidenceCount
}

// EvidenceCount is one evidence key's tally.
type EvidenceCount struct {
	Key string
	N   int64
}

// Credit tallies one evidence key.
func (c *FuncCensus) Credit(key string) {
	for i := range c.Evidence {
		if c.Evidence[i].Key == key {
			c.Evidence[i].N++
			return
		}
	}
	c.Evidence = append(c.Evidence, EvidenceCount{Key: key, N: 1})
}

// Add sums one function's census into the digest under the function's
// name. The loss ledger and the ratios are the caller's.
func (q *Quality) Add(name string, c *FuncCensus) {
	r := c.Row
	r.Func = name
	q.Funcs = append(q.Funcs, r)
	for i, n := range [...]int64{r.Point, r.Narrow, r.Wide, r.Symbolic, r.Top, r.Bottom, r.Infeasible} {
		q.Classes.Counts[i] += n
	}
	for i, n := range c.Width {
		q.Width.Counts[i] += n
	}
	for i, n := range c.Confidence {
		q.Confidence.Counts[i] += n
	}
	for _, e := range c.Evidence {
		q.Evidence[e.Key] += e.N
	}
	q.Branches += r.Branches
	q.Certain += r.Certain
}

// clone deep-copies the quality digest (nil-safe).
func (q *Quality) clone() *Quality {
	if q == nil {
		return nil
	}
	c := *q
	c.Classes = q.Classes.clone()
	c.Width = q.Width.clone()
	c.Confidence = q.Confidence.clone()
	c.Evidence = make(map[string]int64, len(q.Evidence))
	for k, v := range q.Evidence {
		c.Evidence[k] = v
	}
	c.Loss = make(map[string]int64, len(q.Loss))
	for k, v := range q.Loss {
		c.Loss[k] = v
	}
	c.Funcs = append([]FuncQuality(nil), q.Funcs...)
	return &c
}

// Summary renders a compact human-readable digest.
func (q *Quality) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "quality: %d branches, %d certain (ratio %.3f), mean log2 width %.2f, stale-certain %d\n",
		q.Branches, q.Certain, q.CertainRatio, q.MeanLog2Width, q.StaleCertain)
	for _, h := range []*Histogram{q.Classes, q.Width, q.Confidence} {
		if h != nil && h.Total() > 0 {
			fmt.Fprintf(&b, "  %s\n", h.String())
		}
	}
	for _, sec := range []struct {
		name string
		m    map[string]int64
	}{{"loss", q.Loss}, {"evidence", q.Evidence}} {
		name, m := sec.name, sec.m
		if len(m) == 0 {
			continue
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  %s:", name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, m[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
