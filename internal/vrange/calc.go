package vrange

import (
	"math"
)

// Config tunes the range algebra. The defaults mirror the paper: four
// ranges per variable ("allows us to handle merges from up to two levels
// of conditional branching without losing accuracy", §3.4), symbolic
// ranges enabled, and an assumed magnitude for symbolic variables when a
// probability requires an unknown count (the paper's examples use loop
// bounds around ten, giving the familiar 91% loop-branch probability).
type Config struct {
	// MaxRanges is the give-up point for a variable's range set (§3.4).
	MaxRanges int
	// Symbolic enables symbolic (variable-relative) bounds. Disabling it
	// reproduces the paper's "numeric ranges only" curves in Figs 7–8.
	Symbolic bool
	// AssumedVarValue is the magnitude substituted for an unknown symbolic
	// variable when a probability needs a concrete count, e.g. P(i<n) for
	// i ∈ [0:n:1] evaluates to T/(T+1).
	AssumedVarValue int64
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		MaxRanges:       4,
		Symbolic:        true,
		AssumedVarValue: 10,
	}
}

// Calc performs range arithmetic under a Config, counting sub-operations
// (range-pair evaluations) for the paper's Figure 6 instrumentation and
// widenings (set-cap merges and give-ups to ⊥) for the telemetry layer.
//
// A Calc routes every produced value through its Interner and reuses
// internal scratch buffers, so the steady state of a propagation run —
// evaluating expressions whose operands were seen before — performs no
// heap allocation. A Calc is not safe for concurrent use; the analysis
// driver creates one per function run, sharing the longer-lived Interner
// of its worker slot.
type Calc struct {
	Cfg    Config
	SubOps int64
	// Widens counts precision losses inside Canonicalize: every merge
	// forced by the MaxRanges cap and every give-up to ⊥ on incompatible
	// symbolic ranges. A plain counter like SubOps, so the hot path never
	// allocates.
	Widens int64

	// Intern and transfer-memo traffic of this Calc's lifetime (one
	// engine run in the driver), folded into telemetry by the caller.
	InternHits   int64
	InternMisses int64
	MemoHits     int64
	MemoMisses   int64

	// in is the hash-cons table.
	in *Interner

	// Scratch buffers. buf1 collects transfer-function output ranges
	// (binary, Merge, Refine, Neg); buf2 is Canonicalize's working set
	// (Canonicalize nests inside the buf1 users, so the two never alias).
	// small backs the 1–2 range constructors (PointVal, Bool). Interning
	// copies ranges out of scratch on a table miss, so no returned value
	// ever aliases these buffers.
	buf1  []Range
	buf2  []Range
	small [2]Range
}

// NewCalc returns a Calc with the given configuration and a private
// Interner.
func NewCalc(cfg Config) *Calc {
	return NewCalcWith(cfg, NewInterner())
}

// NewCalcWith returns a Calc sharing an existing Interner, so intern and
// memo state persists across many Calcs (the driver keeps one Interner
// and one Calc per worker slot across passes, and resets the Calc's
// counters per function run for exact per-run accounting). it must not
// be nil.
func NewCalcWith(cfg Config, it *Interner) *Calc {
	if cfg.MaxRanges <= 0 {
		cfg.MaxRanges = 1
	}
	if cfg.AssumedVarValue <= 0 {
		cfg.AssumedVarValue = 10
	}
	return &Calc{Cfg: cfg, in: it}
}

// ResetCounts zeroes c's counters and keeps its table and scratch
// buffers, so one Calc serves many runs with per-run accounting.
func (c *Calc) ResetCounts() {
	*c = Calc{Cfg: c.Cfg, in: c.in, buf1: c.buf1, buf2: c.buf2}
}

// minProb drops ranges whose probability falls below this threshold during
// canonicalization; they cannot influence a prediction at the precision
// the experiments report.
const minProb = 1e-9

// Canonicalize sorts, deduplicates, caps and renormalizes a Set value,
// then interns the result. Values of other kinds pass through. If the
// range set cannot be reduced to MaxRanges (incompatible symbolic ranges),
// the result is ⊥ — the paper's give-up point.
//
// An already-interned value is returned unchanged: only canonical values
// are interned, and Canonicalize is idempotent on canonical input, so the
// id doubles as a "known canonical" mark.
func (c *Calc) Canonicalize(v Value) Value {
	if v.kind != Set {
		return v
	}
	if v.id != 0 && v.id != idInfeasible {
		return v
	}
	rs := c.buf2[:0]
	total := 0.0
	for _, r := range v.Ranges {
		if r.Prob < minProb {
			continue
		}
		rs = append(rs, r)
		total += r.Prob
	}
	c.buf2 = rs // keep grown capacity even on early return
	if len(rs) == 0 {
		return Infeasible()
	}
	// Renormalize so probabilities sum to one.
	if math.Abs(total-1) > probEq {
		for i := range rs {
			rs[i].Prob /= total
		}
	}
	sortRangesStable(rs)
	// Merge identical ranges, accumulating the cons-table fingerprint over
	// the emitted ranges as they become final (fused hashing). In the
	// common case — no duplicate merges, no cap merges — the walk below is
	// the only pass over the final ranges; the probabilities are final here
	// because renormalization already ran. A merge mutates an emitted
	// range, so it forces a recompute of the digest at the end.
	hashing := true
	h := fpInit
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && out[n-1].Lo == r.Lo && out[n-1].Hi == r.Hi && out[n-1].Stride == r.Stride {
			out[n-1].Prob += r.Prob
			hashing = false
			continue
		}
		if hashing {
			h = fpFoldRange(h, r)
		}
		out = append(out, r)
	}
	rs = out
	// Cap at MaxRanges by repeatedly merging the cheapest compatible pair.
	for len(rs) > c.Cfg.MaxRanges {
		c.Widens++
		hashing = false
		i, j, ok := c.cheapestMergePair(rs)
		if !ok {
			return BottomValue()
		}
		merged, ok := c.mergeTwo(rs[i], rs[j])
		if !ok {
			return BottomValue()
		}
		rs[i] = merged
		rs = append(rs[:j], rs[j+1:]...)
	}
	if !hashing {
		h = fpInit
		for _, r := range rs {
			h = fpFoldRange(h, r)
		}
	}
	return c.internFused(Value{kind: Set, Ranges: rs}, fpFinish(h, Set, len(rs)))
}

// sortRangesStable is a stable insertion sort under rangeLess. Range sets
// are small (bounded by MaxRanges² intermediates), where insertion sort
// beats sort.SliceStable and — unlike it — does not allocate its closure.
func sortRangesStable(rs []Range) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rangeLess(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func rangeLess(a, b Range) bool {
	if a.Lo.Var != b.Lo.Var {
		return a.Lo.Var < b.Lo.Var
	}
	if a.Lo.Const != b.Lo.Const {
		return a.Lo.Const < b.Lo.Const
	}
	if a.Hi.Var != b.Hi.Var {
		return a.Hi.Var < b.Hi.Var
	}
	if a.Hi.Const != b.Hi.Const {
		return a.Hi.Const < b.Hi.Const
	}
	return a.Stride < b.Stride
}

// cheapestMergePair picks the pair of ranges whose union has the smallest
// span growth. Only pairs whose bounds are mutually comparable qualify.
// Two early exits keep the O(n²) scan off the common paths: a set already
// within the configured cap needs no merge at all, and a gap-free pair
// (cost 0, the scan's floor) cannot be beaten, so the first one found is
// exactly the pair the full scan would select.
func (c *Calc) cheapestMergePair(rs []Range) (int, int, bool) {
	if len(rs) <= c.Cfg.MaxRanges {
		return 0, 0, false // within the cap: nothing to merge
	}
	best, bestJ := -1, -1
	bestCost := math.Inf(1)
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			cost, ok := mergeCost(rs[i], rs[j])
			if ok && cost < bestCost {
				bestCost, best, bestJ = cost, i, j
				if bestCost == 0 {
					return best, bestJ, true
				}
			}
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestJ, true
}

// mergeCost estimates how much information merging two ranges loses: the
// width of the gap between them (0 for overlapping ranges).
func mergeCost(a, b Range) (float64, bool) {
	// All four cross-bound comparisons must be possible.
	if _, ok := a.Lo.diff(b.Lo); !ok {
		return 0, false
	}
	if _, ok := a.Hi.diff(b.Hi); !ok {
		return 0, false
	}
	dLoHi, ok := b.Lo.diff(a.Hi)
	if !ok {
		return 0, false
	}
	dLoHi2, ok := a.Lo.diff(b.Hi)
	if !ok {
		return 0, false
	}
	gap := math.Max(0, math.Max(float64(dLoHi), float64(dLoHi2)))
	return gap, true
}

// mergeTwo unions two ranges into one covering both, with the coarsest
// stride consistent with membership of both.
func (c *Calc) mergeTwo(a, b Range) (Range, bool) {
	lo, ok := minBound(a.Lo, b.Lo)
	if !ok {
		return Range{}, false
	}
	hi, ok := maxBound(a.Hi, b.Hi)
	if !ok {
		return Range{}, false
	}
	dl, ok := b.Lo.diff(a.Lo)
	if !ok {
		return Range{}, false
	}
	stride := gcd64(gcd64(a.Stride, b.Stride), dl)
	if span, ok2 := hi.diff(lo); ok2 {
		if span == 0 {
			stride = 0
		} else if stride == 0 {
			stride = span
		}
	} else if stride == 0 {
		stride = 1
	}
	return Range{Prob: a.Prob + b.Prob, Lo: lo, Hi: hi, Stride: stride}, true
}

func minBound(a, b Bound) (Bound, bool) {
	d, ok := a.diff(b)
	if !ok {
		return Bound{}, false
	}
	if d <= 0 {
		return a, true
	}
	return b, true
}

func maxBound(a, b Bound) (Bound, bool) {
	d, ok := a.diff(b)
	if !ok {
		return Bound{}, false
	}
	if d >= 0 {
		return a, true
	}
	return b, true
}

// Weighted pairs a value with a merge weight (an in-edge probability).
type Weighted struct {
	Val Value
	W   float64
}

// Merge implements φ-function evaluation (§3.3 step 5): "the merging of
// the appropriate ranges according to the current branch probabilities for
// each in-edge". ⊤ operands and zero-weight edges are ignored (they are
// not yet executable or not yet evaluated — the optimistic SCCP rule); a
// ⊥ operand on an executable edge forces ⊥.
//
// General merges are not memoized: the weights are edge probabilities that
// drift on nearly every propagation step, so a (ids, weights) cache almost
// never hits while paying an operand-copy allocation per miss — measured
// as the single largest allocator of the whole analysis before it was
// removed. The result still goes through Canonicalize → intern, so
// repeated merges of the same operands return the same representative
// without allocating. Loop-header φs, whose weights do stabilize, are not
// memoized either: a memo keyed on their weight bits saved no measurable
// time.
func (c *Calc) Merge(items []Weighted) Value {
	totalW := 0.0
	for _, it := range items {
		if it.W <= 0 || it.Val.IsTop() || it.Val.IsInfeasible() {
			continue
		}
		if it.Val.IsBottom() {
			return BottomValue()
		}
		totalW += it.W
	}
	if totalW <= 0 {
		return TopValue()
	}
	// The representation's symbolic bounds are only meaningful between
	// values sharing a single common ancestor (§3.4). A join that mixes a
	// symbolic operand with any other contribution would create a
	// multi-ancestor set whose comparisons can never resolve, so it gives
	// up to ⊥ instead — except when every contribution is the same value.
	// Streaming over the operands twice avoids collecting them: the first
	// pass finds the first contribution and checks sameness, the second
	// (only reached on mixed contributions) checks for symbolic bounds.
	first := Value{}
	haveFirst := false
	allSame := true
	nContrib := 0
	for _, it := range items {
		if it.W <= 0 || it.Val.Kind() != Set || it.Val.IsInfeasible() {
			continue
		}
		nContrib++
		if !haveFirst {
			first = it.Val
			haveFirst = true
			continue
		}
		if allSame && !it.Val.Equal(first) {
			allSame = false
		}
	}
	if nContrib > 1 && !allSame {
		for _, it := range items {
			if it.W <= 0 || it.Val.Kind() != Set || it.Val.IsInfeasible() {
				continue
			}
			for _, r := range it.Val.Ranges {
				if !r.Lo.IsNum() || !r.Hi.IsNum() {
					return BottomValue()
				}
			}
		}
	}
	rs := c.buf1[:0]
	for _, it := range items {
		if it.W <= 0 || it.Val.Kind() != Set || it.Val.IsInfeasible() {
			continue
		}
		w := it.W / totalW
		for _, r := range it.Val.Ranges {
			c.SubOps++
			r.Prob *= w
			rs = append(rs, r)
		}
	}
	c.buf1 = rs
	if len(rs) == 0 {
		return TopValue()
	}
	return c.Canonicalize(Value{kind: Set, Ranges: rs})
}

// MergeAssertionFamily implements the paper's footnote 4: merging an
// assertion-derived variable with its parent (or sibling assertions of a
// common parent) yields the parent's value range. The engine detects the
// family structurally and calls this with the parent's value.
func (c *Calc) MergeAssertionFamily(parent Value) Value { return parent }
