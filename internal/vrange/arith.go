package vrange

import "vrp/internal/ir"

// Apply evaluates a binary operator over two values, dispatching to the
// arithmetic or comparison implementation. Applications over interned
// operands are memoized (keyed on the operand ids and the operator), so a
// fixpoint re-evaluating the same expression returns the cached interned
// result without touching the range algebra.
func (c *Calc) Apply(op ir.BinOp, a, b Value) Value {
	return c.memoized(uint32(op), a, b, func() Value {
		return c.applyUncached(op, a, b)
	})
}

func (c *Calc) applyUncached(op ir.BinOp, a, b Value) Value {
	if op.IsComparison() {
		return c.Compare(op, a, b)
	}
	switch op {
	case ir.BinAdd:
		return c.binary1(a, b, c.addRanges)
	case ir.BinSub:
		return c.binary1(a, b, c.subRanges)
	case ir.BinMul:
		return c.binary1(a, b, c.mulRanges)
	case ir.BinDiv:
		return c.binary1(a, b, c.divRanges)
	case ir.BinMod:
		return c.binaryN(a, b, c.modRanges)
	}
	return BottomValue()
}

// binary1 runs the cartesian pairing of the operand range sets — up to R²
// sub-operations per expression evaluation, the cost model of §4 — for
// pair functions producing exactly one range: its probability is the
// product of the pair probabilities. Output accumulates in the calc's
// scratch buffer; Canonicalize interns the result out of it.
func (c *Calc) binary1(a, b Value, f func(x, y Range) (Range, bool)) Value {
	if a.IsTop() || b.IsTop() {
		return TopValue()
	}
	if a.IsBottom() || b.IsBottom() {
		return BottomValue()
	}
	if a.IsInfeasible() || b.IsInfeasible() {
		return Infeasible()
	}
	rs := c.buf1[:0]
	for _, x := range a.Ranges {
		for _, y := range b.Ranges {
			c.SubOps++
			r, ok := f(x, y)
			if !ok {
				c.buf1 = rs
				return BottomValue()
			}
			r.Prob = x.Prob * y.Prob
			rs = append(rs, r)
		}
	}
	c.buf1 = rs
	return c.Canonicalize(Value{kind: Set, Ranges: rs})
}

// binaryN is binary1 for pair functions that may append several ranges for
// one pair (e.g. the sign split of modulo); their probabilities must sum
// to 1 within the pair and are scaled by the pair weight. A single
// appended range takes the whole pair weight regardless of its Prob field.
func (c *Calc) binaryN(a, b Value, f func(dst []Range, x, y Range) ([]Range, bool)) Value {
	if a.IsTop() || b.IsTop() {
		return TopValue()
	}
	if a.IsBottom() || b.IsBottom() {
		return BottomValue()
	}
	if a.IsInfeasible() || b.IsInfeasible() {
		return Infeasible()
	}
	rs := c.buf1[:0]
	for _, x := range a.Ranges {
		for _, y := range b.Ranges {
			c.SubOps++
			before := len(rs)
			var ok bool
			rs, ok = f(rs, x, y)
			if !ok {
				c.buf1 = rs
				return BottomValue()
			}
			n := len(rs) - before
			for i := before; i < len(rs); i++ {
				w := rs[i].Prob
				if n == 1 {
					w = 1
				}
				rs[i].Prob = w * x.Prob * y.Prob
			}
		}
	}
	c.buf1 = rs
	return c.Canonicalize(Value{kind: Set, Ranges: rs})
}

// strideOf combines strides for interval addition: a point adopts the
// other operand's stride; otherwise the gcd is the coarsest sound stride.
func strideOf(x, y Range) int64 {
	if x.IsPoint() {
		return y.Stride
	}
	if y.IsPoint() {
		return x.Stride
	}
	return gcd64(x.Stride, y.Stride)
}

func (c *Calc) addRanges(x, y Range) (Range, bool) {
	if !c.Cfg.Symbolic && (!x.IsNum() || !y.IsNum()) {
		return Range{}, false
	}
	lo, ok := x.Lo.add(y.Lo)
	if !ok {
		return Range{}, false
	}
	hi, ok := x.Hi.add(y.Hi)
	if !ok {
		return Range{}, false
	}
	return Range{Lo: lo, Hi: hi, Stride: strideOf(x, y)}, true
}

func (c *Calc) subRanges(x, y Range) (Range, bool) {
	if !c.Cfg.Symbolic && (!x.IsNum() || !y.IsNum()) {
		return Range{}, false
	}
	lo, ok := x.Lo.sub(y.Hi)
	if !ok {
		return Range{}, false
	}
	hi, ok := x.Hi.sub(y.Lo)
	if !ok {
		return Range{}, false
	}
	return Range{Lo: lo, Hi: hi, Stride: strideOf(x, y)}, true
}

func (c *Calc) mulRanges(x, y Range) (Range, bool) {
	// Multiplication is numeric-only (the symbolic form can only express
	// var+const, not var*const).
	if !x.IsNum() || !y.IsNum() {
		// x*1 and 1*x keep symbolic values intact.
		if k, ok := pointConst(y); ok && k == 1 {
			return Range{Lo: x.Lo, Hi: x.Hi, Stride: x.Stride}, true
		}
		if k, ok := pointConst(x); ok && k == 1 {
			return Range{Lo: y.Lo, Hi: y.Hi, Stride: y.Stride}, true
		}
		return Range{}, false
	}
	if k, ok := pointConst(y); ok {
		return scaleRange(x, k)
	}
	if k, ok := pointConst(x); ok {
		return scaleRange(y, k)
	}
	// Interval product via corners.
	c1, ok1 := mulOvf(x.Lo.Const, y.Lo.Const)
	c2, ok2 := mulOvf(x.Lo.Const, y.Hi.Const)
	c3, ok3 := mulOvf(x.Hi.Const, y.Lo.Const)
	c4, ok4 := mulOvf(x.Hi.Const, y.Hi.Const)
	if !(ok1 && ok2 && ok3 && ok4) {
		return Range{}, false
	}
	lo := minI(minI(c1, c2), minI(c3, c4))
	hi := maxI(maxI(c1, c2), maxI(c3, c4))
	// Differences between products are multiples of
	// gcd(s1*l2, s2*l1, s1*s2).
	g1, okg1 := mulOvf(x.Stride, y.Lo.Const)
	g2, okg2 := mulOvf(y.Stride, x.Lo.Const)
	g3, okg3 := mulOvf(x.Stride, y.Stride)
	if !(okg1 && okg2 && okg3) {
		return Range{}, false
	}
	stride := gcd64(gcd64(g1, g2), g3)
	if lo == hi {
		stride = 0
	} else if stride == 0 || (hi-lo)%stride != 0 {
		stride = 1
	}
	return Range{Lo: Num(lo), Hi: Num(hi), Stride: stride}, true
}

func pointConst(r Range) (int64, bool) {
	if r.IsPoint() && r.IsNum() {
		return r.Lo.Const, true
	}
	return 0, false
}

func scaleRange(x Range, k int64) (Range, bool) {
	lo, ok1 := mulOvf(x.Lo.Const, k)
	hi, ok2 := mulOvf(x.Hi.Const, k)
	if !ok1 || !ok2 {
		return Range{}, false
	}
	if k < 0 {
		lo, hi = hi, lo
	}
	s, ok := mulOvf(x.Stride, k)
	if !ok {
		return Range{}, false
	}
	if s < 0 {
		s = -s
	}
	if k == 0 {
		return Point(0, Num(0)), true
	}
	return Range{Lo: Num(lo), Hi: Num(hi), Stride: s}, true
}

func (c *Calc) divRanges(x, y Range) (Range, bool) {
	k, ok := pointConst(y)
	if !ok {
		return Range{}, false
	}
	if k == 0 {
		// Mini defines division by zero as 0 (ir.BinOp.Eval); the algebra
		// must agree with the runtime semantics.
		return Point(0, Num(0)), true
	}
	if !x.IsNum() {
		return Range{}, false
	}
	if v, ok := pointConst(x); ok {
		return Point(0, Num(ir.BinDiv.Eval(v, k))), true
	}
	c1 := ir.BinDiv.Eval(x.Lo.Const, k)
	c2 := ir.BinDiv.Eval(x.Hi.Const, k)
	lo, hi := minI(c1, c2), maxI(c1, c2)
	stride := int64(1)
	ak := k
	if ak < 0 {
		ak = -ak
	}
	if x.Stride%ak == 0 && x.Lo.Const%k == 0 {
		stride = x.Stride / ak
	}
	if lo == hi {
		stride = 0
	}
	return Range{Lo: Num(lo), Hi: Num(hi), Stride: stride}, true
}

func (c *Calc) modRanges(dst []Range, x, y Range) ([]Range, bool) {
	k, ok := pointConst(y)
	if !ok || k < 0 {
		return dst, false
	}
	if k == 0 {
		// Mini defines modulo by zero as 0.
		return append(dst, Point(1, Num(0))), true
	}
	if !x.IsNum() {
		// Unknown or symbolic left operand: the result is still bounded
		// by the modulus — `anything % k` lies in [-(k-1), k-1] under
		// truncated division. Modelling the operand as symmetric around
		// zero splits the result into two uniform halves, making
		// P(x % k == r) come out as 1/k — the behaviour of a uniformly
		// distributed operand of either sign.
		return appendFullMod(dst, k), true
	}
	if v, ok := pointConst(x); ok {
		return append(dst, Point(0, Num(ir.BinMod.Eval(v, k)))), true
	}
	if x.Lo.Const < 0 {
		if x.Hi.Const <= 0 {
			// Entirely non-positive: mirror of the non-negative case.
			neg := Range{Lo: Num(-x.Hi.Const), Hi: Num(-x.Lo.Const), Stride: x.Stride}
			before := len(dst)
			out, ok := c.modRanges(dst, neg, y)
			if !ok || len(out)-before != 1 {
				return dst, false
			}
			m := out[before]
			out[before] = Range{Lo: Num(-m.Hi.Const), Hi: Num(-m.Lo.Const), Stride: m.Stride}
			return out, true
		}
		return appendFullMod(dst, k), true
	}
	if x.Hi.Const < k {
		// Already within one period: identity.
		return append(dst, Range{Lo: x.Lo, Hi: x.Hi, Stride: x.Stride}), true
	}
	s := x.Stride
	if s <= 0 {
		s = 1
	}
	g := gcd64(s, k)
	lo := x.Lo.Const % g
	hi := lo + ((k-1-lo)/g)*g
	if lo == hi {
		g = 0
	}
	return append(dst, Range{Lo: Num(lo), Hi: Num(hi), Stride: g}), true
}

// appendFullMod appends the sign-split result of `unknown % k`.
func appendFullMod(dst []Range, k int64) []Range {
	if k == 1 {
		return append(dst, Point(1, Num(0)))
	}
	return append(dst,
		Range{Prob: 0.5, Lo: Num(-(k - 1)), Hi: Num(0), Stride: 1},
		Range{Prob: 0.5, Lo: Num(0), Hi: Num(k - 1), Stride: 1},
	)
}

// Neg evaluates unary minus (memoized; TopValue is the unary b sentinel).
func (c *Calc) Neg(v Value) Value {
	if v.Kind() != Set {
		return v
	}
	return c.memoized(memoOpNeg, v, TopValue(), func() Value {
		return c.negUncached(v)
	})
}

func (c *Calc) negUncached(v Value) Value {
	rs := c.buf1[:0]
	for _, r := range v.Ranges {
		c.SubOps++
		if !r.IsNum() {
			c.buf1 = rs
			return BottomValue()
		}
		lo, ok1 := subOvf(0, r.Hi.Const)
		hi, ok2 := subOvf(0, r.Lo.Const)
		if !ok1 || !ok2 {
			c.buf1 = rs
			return BottomValue()
		}
		rs = append(rs, Range{Prob: r.Prob, Lo: Num(lo), Hi: Num(hi), Stride: r.Stride})
	}
	c.buf1 = rs
	return c.Canonicalize(Value{kind: Set, Ranges: rs})
}

// Not evaluates logical negation: 1 when the operand is zero.
func (c *Calc) Not(v Value) Value {
	if v.Kind() != Set {
		return v
	}
	return c.memoized(memoOpNot, v, TopValue(), func() Value {
		p, ok := c.ProbTrue(v)
		if !ok {
			return BottomValue()
		}
		return c.Bool(1 - p)
	})
}

// Bool builds the weighted 0/1 value {p[1:1:0], (1-p)[0:0:0]}, the result
// shape of every comparison. The shape is canonical by construction
// (sorted points, probabilities summing to one), so it interns directly.
func (c *Calc) Bool(p float64) Value {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rs := c.small[:0]
	if 1-p >= minProb {
		rs = append(rs, Point(1-p, Num(0)))
	}
	if p >= minProb {
		rs = append(rs, Point(p, Num(1)))
	}
	return c.intern(Value{kind: Set, Ranges: rs})
}
