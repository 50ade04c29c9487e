package vrange

// Width and class accounting for the prediction-quality observatory
// (DESIGN.md §3.12). A final lattice cell is scored on two axes:
//
//   - its ValueClass — how much the analysis ultimately knew about the
//     register, ordered from "everything" (infeasible: the code never
//     runs) to "nothing" (⊥);
//   - its hull width — for measurable Set values, the widest numeric
//     Lo..Hi span across the value's ranges, the quantity whose growth
//     is precision loss and whose shrinkage (π-refinement) is gain.
//
// Everything here is a pure function of Value contents, so the quality
// counters built on top are bit-identical across worker counts.

// ValueClass buckets a lattice cell for quality accounting.
type ValueClass int

// Value classes, ordered most-precise first, so a greater class is a
// coarser one; MergeLoss and RefineGain compare classes by that order.
// ⊤ sits above every measurable class but below ⊥ — optimism is not
// information, but it will still be refined, whereas ⊥ is final.
const (
	ClassInfeasible ValueClass = iota // Set with zero ranges: unreachable
	ClassPoint                        // every range is a single numeric point
	ClassNarrow                       // numeric, hull width ≤ NarrowWidth
	ClassWide                         // numeric, hull width > NarrowWidth
	ClassSymbolic                     // at least one non-numeric bound
	ClassTop                          // ⊤: never evaluated (optimistic)
	ClassBottom                       // ⊥: unpredictable
)

// NarrowWidth is the hull-width boundary between "narrow" and "wide"
// cells, roughly "small enough that ProbTrue splits it meaningfully";
// it is also the edge of the quality digest's ≤64 width bucket, so a
// narrow cell never lands in a wider bucket.
const NarrowWidth = 64

func (c ValueClass) String() string {
	switch c {
	case ClassInfeasible:
		return "infeasible"
	case ClassPoint:
		return "point"
	case ClassNarrow:
		return "narrow"
	case ClassWide:
		return "wide"
	case ClassSymbolic:
		return "symbolic"
	case ClassTop:
		return "top"
	case ClassBottom:
		return "bottom"
	}
	return "unknown"
}

// Classify returns a value's class and, for numeric Set values, its hull
// width: the largest Hi−Lo difference over the value's ranges (0 for
// points). The width is 0 for every other class.
func Classify(v Value) (ValueClass, int64) {
	switch {
	case v.IsTop():
		return ClassTop, 0
	case v.IsBottom():
		return ClassBottom, 0
	case v.IsInfeasible():
		return ClassInfeasible, 0
	}
	width := int64(0)
	for _, r := range v.Ranges {
		if !r.Lo.IsNum() || !r.Hi.IsNum() {
			return ClassSymbolic, 0
		}
		w, ok := r.Hi.Diff(r.Lo)
		if !ok {
			return ClassSymbolic, 0
		}
		if w > width {
			width = w
		}
	}
	switch {
	case width == 0:
		return ClassPoint, 0
	case width <= NarrowWidth:
		return ClassNarrow, width
	}
	return ClassWide, width
}

// MergeLoss reports whether a φ-merge strictly coarsened the information
// its inputs carried: the result's class is coarser than every input's
// class, or — when result and best input are both measurable in the same
// class — the result's hull is strictly wider. ⊤ inputs are skipped (an
// unevaluated operand contributes optimism, not information); a merge
// with no informative input can never lose.
func MergeLoss(out Value, in []Weighted) bool {
	outC, outW := Classify(out)
	best, bestW := ValueClass(-1), int64(0)
	for _, item := range in {
		c, w := Classify(item.Val)
		if c == ClassTop {
			continue
		}
		if best < 0 || c < best || (c == best && w < bestW) {
			best, bestW = c, w
		}
	}
	if best < 0 {
		return false
	}
	if outC != best {
		return outC > best
	}
	return outW > bestW
}

// RefineGain reports whether a π-assertion refinement produced a value
// strictly more precise than its parent: a more precise class, or the
// same measurable class with a strictly narrower hull. Parents still at
// ⊤ are skipped — refining optimism is evaluation, not tightening.
func RefineGain(parent, refined Value) bool {
	pc, pw := Classify(parent)
	if pc == ClassTop {
		return false
	}
	rc, rw := Classify(refined)
	if rc != pc {
		return rc < pc
	}
	return rw < pw
}
