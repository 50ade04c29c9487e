package vrange

import (
	"math"

	"vrp/internal/ir"
)

// Compare evaluates `a rel b`, producing the weighted boolean value
// {p[1:1:0], (1-p)[0:0:0]} where p is the probability the relation holds.
// Values are assumed uniformly distributed within each range and
// independent between operands — the model of §3.3's worked example.
func (c *Calc) Compare(rel ir.BinOp, a, b Value) Value {
	if a.IsTop() || b.IsTop() {
		return TopValue()
	}
	if a.IsBottom() || b.IsBottom() {
		return BottomValue()
	}
	if a.IsInfeasible() || b.IsInfeasible() {
		return Infeasible()
	}
	p := 0.0
	for _, x := range a.Ranges {
		for _, y := range b.Ranges {
			c.SubOps++
			f, ok := c.fracRel(x, rel, y)
			if !ok {
				return BottomValue()
			}
			p += x.Prob * y.Prob * f
		}
	}
	return c.Bool(p)
}

// ProbTrue returns the probability that the value is non-zero (the branch
// semantics of OpBr).
func (c *Calc) ProbTrue(v Value) (float64, bool) {
	if v.Kind() != Set || v.IsInfeasible() {
		return 0, false
	}
	p := 0.0
	zero := Point(1, Num(0))
	for _, r := range v.Ranges {
		c.SubOps++
		fz, ok := c.fracRel(r, ir.BinEq, zero)
		if !ok {
			return 0, false
		}
		p += r.Prob * (1 - fz)
	}
	return p, true
}

// fracRel returns the fraction of (x,y) pairs drawn from the two ranges
// that satisfy `x rel y`.
func (c *Calc) fracRel(x Range, rel ir.BinOp, y Range) (float64, bool) {
	switch rel {
	case ir.BinEq:
		return c.fracEq(x, y)
	case ir.BinNe:
		f, ok := c.fracEq(x, y)
		return 1 - f, ok
	case ir.BinLt:
		return c.fracLt(x, y)
	case ir.BinGt:
		return c.fracLt(y, x)
	case ir.BinLe:
		f, ok := c.fracLt(y, x)
		return 1 - f, ok
	case ir.BinGe:
		f, ok := c.fracLt(x, y)
		return 1 - f, ok
	}
	return 0, false
}

// count returns the number of values in the range; ok reports whether it
// is exact. Symbolic extents are estimated by substituting the configured
// assumed magnitude for the unknown variable.
func (c *Calc) count(r Range) (n float64, exact bool) {
	if n, ok := r.Count(); ok {
		return float64(n), true
	}
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	lo := c.estimate(r.Lo)
	hi := c.estimate(r.Hi)
	n = math.Floor((hi-lo)/float64(s)) + 1
	if n < 1 {
		n = 1
	}
	return n, false
}

// estimate maps a bound to a representative number, substituting the
// assumed magnitude for symbolic variables.
func (c *Calc) estimate(b Bound) float64 {
	v := float64(b.Const)
	if !b.IsNum() {
		v += float64(c.Cfg.AssumedVarValue)
	}
	return v
}

// satBelow returns how many values of r lie strictly below bound b
// (or ≤ b when strict is false); ok is false when no relation between the
// range and the bound can be established.
func (c *Calc) satBelow(r Range, b Bound, strict bool) (sat float64, ok bool) {
	total, _ := c.count(r)
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	limit := b
	if !strict {
		// v <= b  ⇔  v < b+1
		nb, okAdd := b.addConst(1)
		if !okAdd {
			return 0, false
		}
		limit = nb
	}
	if d, okd := limit.diff(r.Lo); okd {
		// Values lo + i·s < lo + d  ⇔  i < d/s.
		if d <= 0 {
			return 0, true
		}
		n := math.Ceil(float64(d) / float64(s))
		return math.Min(n, total), true
	}
	if d, okd := limit.diff(r.Hi); okd {
		// Count from the top: values ≥ limit are hi - j·s ≥ hi + d' with
		// d' = limit - hi, i.e. j ≤ -d'/s.
		if d > 0 {
			return total, true // even hi is below the limit
		}
		notSat := math.Floor(float64(-d)/float64(s)) + 1
		n := total - notSat
		if n < 0 {
			n = 0
		}
		return n, true
	}
	return 0, false
}

// fracLt returns the fraction of pairs with x < y.
func (c *Calc) fracLt(x, y Range) (float64, bool) {
	// Fully decided cases first.
	if d, ok := x.Hi.diff(y.Lo); ok && d < 0 {
		return 1, true
	}
	if d, ok := x.Lo.diff(y.Hi); ok && d >= 0 {
		return 0, true
	}
	if x.IsPoint() && y.IsPoint() {
		d, ok := x.Lo.diff(y.Lo)
		if !ok {
			return 0, false
		}
		if d < 0 {
			return 1, true
		}
		return 0, true
	}
	if y.IsPoint() {
		sat, ok := c.satBelow(x, y.Lo, true)
		if !ok {
			return 0, false
		}
		total, exact := c.count(x)
		return c.fracOf(sat, total, exact), true
	}
	if x.IsPoint() {
		// P(x < y) = 1 - P(y <= x) = 1 - satBelow(y, x, false)/|y|.
		sat, ok := c.satBelow(y, x.Lo, false)
		if !ok {
			return 0, false
		}
		total, exact := c.count(y)
		return 1 - c.fracOf(sat, total, exact), true
	}
	// Two multi-value ranges.
	if x.IsNum() && y.IsNum() {
		return c.fracLtNum(x, y), true
	}
	// Symbolic multi-range vs multi-range: only the bound tests above can
	// decide; otherwise give up.
	return 0, false
}

// fracLtNum handles numeric multi-value ranges: the exact pair count, in
// closed form whatever the sizes (pairs.go).
func (c *Calc) fracLtNum(x, y Range) float64 {
	nx, _ := x.Count()
	ny, _ := y.Count()
	return clamp01(pairsLt(progOf(x), progOf(y)).float() / (float64(nx) * float64(ny)))
}

// fracEq returns the fraction of pairs with x == y.
func (c *Calc) fracEq(x, y Range) (float64, bool) {
	// Disjointness decides immediately.
	if d, ok := x.Hi.diff(y.Lo); ok && d < 0 {
		return 0, true
	}
	if d, ok := y.Hi.diff(x.Lo); ok && d < 0 {
		return 0, true
	}
	if x.IsPoint() && y.IsPoint() {
		d, ok := x.Lo.diff(y.Lo)
		if !ok {
			return 0, false
		}
		if d == 0 {
			return 1, true
		}
		return 0, true
	}
	if y.IsPoint() {
		return c.fracContains(x, y.Lo)
	}
	if x.IsPoint() {
		return c.fracContains(y, x.Lo)
	}
	if x.IsNum() && y.IsNum() {
		nx, _ := x.Count()
		ny, _ := y.Count()
		return clamp01(float64(pairsEq(progOf(x), progOf(y))) / (float64(nx) * float64(ny))), true
	}
	return 0, false
}

// fracContains returns the probability that a value drawn from r equals
// the bound b: 1/|r| when b is a member, 0 when it provably is not.
func (c *Calc) fracContains(r Range, b Bound) (float64, bool) {
	dLo, okLo := b.diff(r.Lo)
	dHi, okHi := b.diff(r.Hi)
	if okLo && dLo < 0 {
		return 0, true
	}
	if okHi && dHi > 0 {
		return 0, true
	}
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	if okLo {
		if dLo%s != 0 {
			return 0, true // not on the stride grid
		}
		n, exact := c.count(r)
		return c.fracOf(1, n, exact), true
	}
	if okHi {
		if (-dHi)%s != 0 {
			return 0, true
		}
		n, exact := c.count(r)
		return c.fracOf(1, n, exact), true
	}
	// No relation between the point and either bound.
	return 0, false
}

// fracOf converts a satisfying count into a fraction. When the total is
// only an estimate (symbolic extent), the result is kept strictly inside
// (0,1): a certainty must come from a provable bound comparison, never
// from the assumed-magnitude substitution — otherwise an estimated "all of
// them" would masquerade as a proof (and, downstream, fold a branch that
// can in fact go both ways).
func (c *Calc) fracOf(sat, total float64, exact bool) float64 {
	f := clamp01(sat / total)
	if exact {
		return f
	}
	lo := 1 / (2 * total)
	hi := 1 - lo
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
