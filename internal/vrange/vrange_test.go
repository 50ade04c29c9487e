package vrange

import (
	"math"
	"testing"

	"vrp/internal/ir"
)

func calc() *Calc { return NewCalc(DefaultConfig()) }

func numRange(p float64, lo, hi, stride int64) Range {
	return Range{Prob: p, Lo: Num(lo), Hi: Num(hi), Stride: stride}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBoundArithmetic(t *testing.T) {
	x := ir.Reg(5)
	if b, ok := Sym(x, 2).add(Num(3)); !ok || b != Sym(x, 5) {
		t.Errorf("x+2 + 3 = %v, %v", b, ok)
	}
	if _, ok := Sym(x, 0).add(Sym(x, 0)); ok {
		t.Error("symbolic+symbolic must fail (single ancestor only)")
	}
	if b, ok := Sym(x, 5).sub(Sym(x, 2)); !ok || b != Num(3) {
		t.Errorf("(x+5)-(x+2) = %v, %v", b, ok)
	}
	if b, ok := Sym(x, 5).sub(Num(2)); !ok || b != Sym(x, 3) {
		t.Errorf("(x+5)-2 = %v, %v", b, ok)
	}
	if _, ok := Num(1).sub(Sym(x, 0)); ok {
		t.Error("1-x is not representable")
	}
	if d, ok := Sym(x, 7).Diff(Sym(x, 3)); !ok || d != 4 {
		t.Errorf("Diff = %d, %v", d, ok)
	}
	if _, ok := Sym(x, 0).Diff(Sym(ir.Reg(6), 0)); ok {
		t.Error("Diff across ancestors must fail")
	}
}

func TestValueBasics(t *testing.T) {
	if !TopValue().IsTop() || !BottomValue().IsBottom() || !Infeasible().IsInfeasible() {
		t.Error("kind predicates broken")
	}
	v := Const(7)
	if c, ok := v.AsConst(); !ok || c != 7 {
		t.Error("Const/AsConst roundtrip")
	}
	s := Symbolic(ir.Reg(3))
	if r, ok := s.AsCopyOf(); !ok || r != 3 {
		t.Error("Symbolic/AsCopyOf roundtrip")
	}
	if _, ok := Const(7).AsCopyOf(); ok {
		t.Error("constant is not a copy")
	}
	if _, ok := Symbolic(ir.Reg(3)).AsConst(); ok {
		t.Error("symbolic is not a constant")
	}
}

func TestValueEqualAndShape(t *testing.T) {
	a := FromRanges(numRange(0.5, 0, 9, 1), numRange(0.5, 20, 20, 0))
	b := FromRanges(numRange(0.5, 0, 9, 1), numRange(0.5, 20, 20, 0))
	if !a.Equal(b) {
		t.Error("identical values not Equal")
	}
	c := FromRanges(numRange(0.4, 0, 9, 1), numRange(0.6, 20, 20, 0))
	if a.Equal(c) {
		t.Error("different probabilities compared Equal")
	}
	if !a.SameShape(c) {
		t.Error("same bounds must be SameShape despite probabilities")
	}
	d := FromRanges(numRange(0.5, 0, 8, 1), numRange(0.5, 20, 20, 0))
	if a.SameShape(d) {
		t.Error("different bounds must not be SameShape")
	}
	if !TopValue().Equal(TopValue()) || TopValue().Equal(BottomValue()) {
		t.Error("kind equality broken")
	}
}

func TestFormat(t *testing.T) {
	v := FromRanges(numRange(0.7, 32, 256, 1), Range{Prob: 0.3, Lo: Sym(9, 0), Hi: Sym(9, 2), Stride: 1})
	got := v.Format(func(r ir.Reg) string { return "y" })
	want := "{ 0.7[32:256:1], 0.3[y:y+2:1] }"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if TopValue().String() != "⊤" || BottomValue().String() != "⊥" {
		t.Error("top/bottom rendering")
	}
}

// TestPaperRangeAddExample is the worked example of §3.5:
//
//	{0.7[32:256:1], 0.3[3:21:3]} + {0.6[16:100:4], 0.4[8:8:0]}
//	  = {0.42[48:356:1], 0.28[40:264:1], 0.18[19:121:1], 0.12[11:29:3]}
func TestPaperRangeAddExample(t *testing.T) {
	c := NewCalc(Config{MaxRanges: 8, Symbolic: true, AssumedVarValue: 10})
	a := FromRanges(numRange(0.7, 32, 256, 1), numRange(0.3, 3, 21, 3))
	b := FromRanges(numRange(0.6, 16, 100, 4), numRange(0.4, 8, 8, 0))
	got := c.Apply(ir.BinAdd, a, b)
	want := map[[3]int64]float64{
		{48, 356, 1}: 0.42,
		{40, 264, 1}: 0.28,
		{19, 121, 1}: 0.18,
		{11, 29, 3}:  0.12,
	}
	if got.Kind() != Set || len(got.Ranges) != 4 {
		t.Fatalf("result = %v", got)
	}
	for _, r := range got.Ranges {
		key := [3]int64{r.Lo.Const, r.Hi.Const, r.Stride}
		p, ok := want[key]
		if !ok {
			t.Errorf("unexpected range %v", r)
			continue
		}
		if !approx(r.Prob, p) {
			t.Errorf("range %v prob %f, want %f", key, r.Prob, p)
		}
	}
}

func TestAddSymbolic(t *testing.T) {
	c := calc()
	x := Symbolic(ir.Reg(4))
	got := c.Apply(ir.BinAdd, x, Const(3))
	if got.Kind() != Set || len(got.Ranges) != 1 {
		t.Fatalf("x+3 = %v", got)
	}
	r := got.Ranges[0]
	if r.Lo != Sym(4, 3) || r.Hi != Sym(4, 3) {
		t.Errorf("x+3 = %v", r)
	}
	// x + y (two ancestors) must give up.
	if got := c.Apply(ir.BinAdd, x, Symbolic(ir.Reg(5))); !got.IsBottom() {
		t.Errorf("x+y = %v, want ⊥", got)
	}
	// x - x cancels exactly.
	if got := c.Apply(ir.BinSub, x, x); !mustConst(got, 0) {
		t.Errorf("x-x = %v, want {0}", got)
	}
}

func mustConst(v Value, c int64) bool {
	got, ok := v.AsConst()
	return ok && got == c
}

func TestMul(t *testing.T) {
	c := calc()
	if got := c.Apply(ir.BinMul, Const(6), Const(7)); !mustConst(got, 42) {
		t.Errorf("6*7 = %v", got)
	}
	got := c.Apply(ir.BinMul, FromRanges(numRange(1, 0, 9, 1)), Const(3))
	r := got.Ranges[0]
	if r.Lo.Const != 0 || r.Hi.Const != 27 || r.Stride != 3 {
		t.Errorf("[0:9:1]*3 = %v", r)
	}
	// Negative scale flips bounds.
	got = c.Apply(ir.BinMul, FromRanges(numRange(1, 1, 5, 1)), Const(-2))
	r = got.Ranges[0]
	if r.Lo.Const != -10 || r.Hi.Const != -2 || r.Stride != 2 {
		t.Errorf("[1:5:1]*-2 = %v", r)
	}
	// Symbolic * 1 is identity; anything else gives up.
	x := Symbolic(ir.Reg(4))
	if got := c.Apply(ir.BinMul, x, Const(1)); !got.Equal(x) {
		t.Errorf("x*1 = %v", got)
	}
	if got := c.Apply(ir.BinMul, x, Const(2)); !got.IsBottom() {
		t.Errorf("x*2 = %v, want ⊥", got)
	}
}

func TestDiv(t *testing.T) {
	c := calc()
	if got := c.Apply(ir.BinDiv, Const(7), Const(2)); !mustConst(got, 3) {
		t.Errorf("7/2 = %v", got)
	}
	got := c.Apply(ir.BinDiv, FromRanges(numRange(1, 0, 90, 10)), Const(10))
	r := got.Ranges[0]
	if r.Lo.Const != 0 || r.Hi.Const != 9 || r.Stride != 1 {
		t.Errorf("[0:90:10]/10 = %v", r)
	}
	// Division by a range containing zero gives up.
	if got := c.Apply(ir.BinDiv, Const(10), FromRanges(numRange(1, -1, 1, 1))); !got.IsBottom() {
		t.Errorf("10/[-1:1] = %v, want ⊥", got)
	}
}

func TestMod(t *testing.T) {
	c := calc()
	if got := c.Apply(ir.BinMod, Const(7), Const(3)); !mustConst(got, 1) {
		t.Errorf("7%%3 = %v", got)
	}
	// In-period identity.
	got := c.Apply(ir.BinMod, FromRanges(numRange(1, 0, 5, 1)), Const(10))
	r := got.Ranges[0]
	if r.Lo.Const != 0 || r.Hi.Const != 5 {
		t.Errorf("[0:5]%%10 = %v", r)
	}
	// Wrapping: result bounded by the modulus, stride gcd preserved.
	got = c.Apply(ir.BinMod, FromRanges(numRange(1, 0, 100, 2)), Const(8))
	r = got.Ranges[0]
	if r.Lo.Const != 0 || r.Hi.Const != 6 || r.Stride != 2 {
		t.Errorf("[0:100:2]%%8 = %v", r)
	}
	// Unknown operand: the sign-split model; P(x%k==0) must be 1/k.
	x := Symbolic(ir.Reg(4))
	got = c.Apply(ir.BinMod, x, Const(6))
	eq := c.Compare(ir.BinEq, got, Const(0))
	p, ok := c.ProbTrue(eq)
	if !ok || !approx(p, 1.0/6) {
		t.Errorf("P(x%%6 == 0) = %v (ok=%v), want 1/6", p, ok)
	}
}

func TestNegNot(t *testing.T) {
	c := calc()
	got := c.Neg(FromRanges(numRange(1, 2, 8, 2)))
	r := got.Ranges[0]
	if r.Lo.Const != -8 || r.Hi.Const != -2 || r.Stride != 2 {
		t.Errorf("-[2:8:2] = %v", r)
	}
	if got := c.Not(Const(0)); !mustConst(got, 1) {
		t.Errorf("!0 = %v", got)
	}
	if got := c.Not(Const(5)); !mustConst(got, 0) {
		t.Errorf("!5 = %v", got)
	}
	nb := c.Not(c.Bool(0.3))
	p, _ := c.ProbTrue(nb)
	if !approx(p, 0.7) {
		t.Errorf("P(!bool(0.3)) = %f", p)
	}
}

func TestTopBottomPropagation(t *testing.T) {
	c := calc()
	if !c.Apply(ir.BinAdd, TopValue(), Const(1)).IsTop() {
		t.Error("⊤+1 must stay ⊤ (optimistic)")
	}
	if !c.Apply(ir.BinAdd, BottomValue(), Const(1)).IsBottom() {
		t.Error("⊥+1 must be ⊥")
	}
	if !c.Compare(ir.BinLt, TopValue(), Const(1)).IsTop() {
		t.Error("⊤<1 must stay ⊤")
	}
	if !c.Compare(ir.BinLt, BottomValue(), Const(1)).IsBottom() {
		t.Error("⊥<1 must be ⊥")
	}
	if !c.Apply(ir.BinAdd, Infeasible(), Const(1)).IsInfeasible() {
		t.Error("infeasible + 1 must stay infeasible")
	}
}
