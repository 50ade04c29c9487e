package vrange

import (
	"math"
	"testing"

	"vrp/internal/ir"
)

// Overflow anywhere in the range algebra must give up to ⊥, never wrap.

func TestAddOverflowIsBottom(t *testing.T) {
	c := calc()
	huge := FromRanges(numRange(1, math.MaxInt64-10, math.MaxInt64-1, 1))
	if got := c.Apply(ir.BinAdd, huge, Const(100)); !got.IsBottom() {
		t.Errorf("huge + 100 = %v, want ⊥", got)
	}
	lowHuge := FromRanges(numRange(1, math.MinInt64+1, math.MinInt64+10, 1))
	if got := c.Apply(ir.BinSub, lowHuge, Const(100)); !got.IsBottom() {
		t.Errorf("-huge - 100 = %v, want ⊥", got)
	}
}

func TestMulOverflowIsBottom(t *testing.T) {
	c := calc()
	big := FromRanges(numRange(1, 1<<40, 1<<40+8, 1))
	if got := c.Apply(ir.BinMul, big, Const(1<<40)); !got.IsBottom() {
		t.Errorf("2^40 * 2^40 = %v, want ⊥", got)
	}
}

func TestNegOverflowIsBottom(t *testing.T) {
	c := calc()
	v := FromRanges(numRange(1, math.MinInt64, math.MinInt64+2, 1))
	if got := c.Neg(v); !got.IsBottom() {
		t.Errorf("-MinInt64 range = %v, want ⊥", got)
	}
}

func TestSymbolicConstOverflow(t *testing.T) {
	c := calc()
	x := FromRanges(Point(1, Sym(ir.Reg(3), math.MaxInt64-1)))
	if got := c.Apply(ir.BinAdd, x, Const(100)); !got.IsBottom() {
		t.Errorf("(x+huge) + 100 = %v, want ⊥", got)
	}
}

func TestDivByZeroRangeIsBottom(t *testing.T) {
	c := calc()
	if got := c.Apply(ir.BinDiv, Const(1), Const(0)); got.IsBottom() {
		// Division by the zero *constant* is defined (0) in Mini; the
		// algebra must agree with BinOp.Eval.
		t.Errorf("1/0 = %v, want {0}", got)
	} else if k, ok := got.AsConst(); !ok || k != 0 {
		t.Errorf("1/0 = %v, want {0}", got)
	}
}

func TestModNegativeModulusIsBottom(t *testing.T) {
	c := calc()
	if got := c.Apply(ir.BinMod, FromRanges(numRange(1, 0, 9, 1)), Const(-3)); !got.IsBottom() {
		t.Errorf("[0:9] %% -3 = %v, want ⊥", got)
	}
}

// The canonicalizer must survive adversarial probability mass.
func TestCanonicalizeZeroMass(t *testing.T) {
	c := calc()
	v := c.Canonicalize(Value{kind: Set, Ranges: []Range{
		{Prob: 0, Lo: Num(1), Hi: Num(1)},
		{Prob: 1e-15, Lo: Num(2), Hi: Num(2)},
	}})
	if !v.IsInfeasible() {
		t.Errorf("zero-mass canonicalize = %v, want infeasible", v)
	}
}

func TestCanonicalizeSingleSurvivor(t *testing.T) {
	c := calc()
	v := c.Canonicalize(Value{kind: Set, Ranges: []Range{
		{Prob: 1e-15, Lo: Num(1), Hi: Num(1)},
		{Prob: 0.5, Lo: Num(2), Hi: Num(2)},
	}})
	if v.Kind() != Set || len(v.Ranges) != 1 {
		t.Fatalf("canonicalize = %v", v)
	}
	if !approx(v.Ranges[0].Prob, 1) {
		t.Errorf("survivor prob = %f, want renormalized 1", v.Ranges[0].Prob)
	}
}

// Comparisons at the int64 edges count pairs exactly: v+1 overflowing for
// v = MaxInt64 must not count MaxInt64 as below every y.
func TestCompareAtInt64Edges(t *testing.T) {
	c := calc()
	for _, rg := range []Range{
		numRange(1, math.MaxInt64-1, math.MaxInt64, 1),
		numRange(1, math.MinInt64, math.MinInt64+1, 1),
	} {
		if p, ok := c.fracLt(rg, rg); !ok || p != 0.25 {
			t.Errorf("P(x<y) over %v = %v (ok %v), want 0.25", rg, p, ok)
		}
		v := FromRanges(rg)
		if p := probOf(t, c.Compare(ir.BinLe, v, v)); p != 0.75 {
			t.Errorf("P(x<=y) over %v = %v, want 0.75", rg, p)
		}
	}
}
