package vrange

import (
	"math"
	"testing"

	"vrp/internal/ir"
)

func probOf(t *testing.T, v Value) float64 {
	t.Helper()
	c := calc()
	p, ok := c.ProbTrue(v)
	if !ok {
		t.Fatalf("ProbTrue(%v) not computable", v)
	}
	return p
}

func TestComparePaperExample(t *testing.T) {
	// Figure 2 logic: y = {0.8[0:7:1], 0.2[1:1:0]}, P(y == 1) = 30%.
	c := calc()
	y := FromRanges(numRange(0.8, 0, 7, 1), numRange(0.2, 1, 1, 0))
	got := c.Compare(ir.BinEq, y, Const(1))
	if p := probOf(t, got); !approx(p, 0.3) {
		t.Errorf("P(y==1) = %f, want 0.3", p)
	}
}

func TestCompareLoopBranch(t *testing.T) {
	// x ∈ [0:10:1]: P(x < 10) = 10/11 (the paper's 91%).
	c := calc()
	x := FromRanges(numRange(1, 0, 10, 1))
	got := c.Compare(ir.BinLt, x, Const(10))
	if p := probOf(t, got); !approx(p, 10.0/11) {
		t.Errorf("P(x<10) = %f, want %f", p, 10.0/11)
	}
	// P(x > 7) over [0:9:1] = 2/10 (the 20% branch).
	x9 := FromRanges(numRange(1, 0, 9, 1))
	got = c.Compare(ir.BinGt, x9, Const(7))
	if p := probOf(t, got); !approx(p, 0.2) {
		t.Errorf("P(x>7) = %f, want 0.2", p)
	}
}

func TestCompareDecided(t *testing.T) {
	c := calc()
	a := FromRanges(numRange(1, 0, 5, 1))
	b := FromRanges(numRange(1, 10, 20, 1))
	if p := probOf(t, c.Compare(ir.BinLt, a, b)); p != 1 {
		t.Errorf("P([0:5] < [10:20]) = %f, want 1", p)
	}
	if p := probOf(t, c.Compare(ir.BinGt, a, b)); p != 0 {
		t.Errorf("P([0:5] > [10:20]) = %f, want 0", p)
	}
	if p := probOf(t, c.Compare(ir.BinEq, a, b)); p != 0 {
		t.Errorf("P([0:5] == [10:20]) = %f, want 0", p)
	}
	if p := probOf(t, c.Compare(ir.BinNe, a, b)); p != 1 {
		t.Errorf("P([0:5] != [10:20]) = %f, want 1", p)
	}
}

// enumProb computes the exact pair fraction by brute force.
func enumProb(rel ir.BinOp, a, b Range) float64 {
	count, sat := 0, 0
	for _, x := range members(a) {
		for _, y := range members(b) {
			count++
			if rel.Eval(x, y) != 0 {
				sat++
			}
		}
	}
	return float64(sat) / float64(count)
}

func TestCompareMatchesEnumeration(t *testing.T) {
	c := calc()
	ranges := []Range{
		numRange(1, 0, 9, 1),
		numRange(1, 3, 21, 3),
		numRange(1, -5, 5, 1),
		numRange(1, 7, 7, 0),
		numRange(1, 0, 100, 4),
		numRange(1, -20, -2, 2),
	}
	rels := []ir.BinOp{ir.BinEq, ir.BinNe, ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe}
	for _, a := range ranges {
		for _, b := range ranges {
			for _, rel := range rels {
				va := FromRanges(a)
				vb := FromRanges(b)
				got := c.Compare(rel, va, vb)
				p, ok := c.ProbTrue(got)
				if !ok {
					t.Fatalf("compare %v %s %v not computable", a, rel, b)
				}
				want := enumProb(rel, a, b)
				if math.Abs(p-want) > 1e-9 {
					t.Errorf("P(%v %s %v) = %f, enumeration says %f", a, rel, b, p, want)
				}
			}
		}
	}
}

func TestCompareSymbolicSameAncestor(t *testing.T) {
	c := calc()
	n := ir.Reg(9)
	// i ∈ [0:n:1] vs the point n: P(i < n) = T/(T+1) with T = 10.
	i := FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Sym(n, 0), Stride: 1})
	pt := Symbolic(n)
	got := c.Compare(ir.BinLt, i, pt)
	if p := probOf(t, got); !approx(p, 10.0/11) {
		t.Errorf("P(i<n) = %f, want %f", p, 10.0/11)
	}
	// P(i == n) = 1/(T+1).
	got = c.Compare(ir.BinEq, i, pt)
	if p := probOf(t, got); !approx(p, 1.0/11) {
		t.Errorf("P(i==n) = %f, want %f", p, 1.0/11)
	}
	// Symbolic points with offsets: x+1 > x always.
	x := ir.Reg(4)
	a := FromRanges(Point(1, Sym(x, 1)))
	b := FromRanges(Point(1, Sym(x, 0)))
	if p := probOf(t, c.Compare(ir.BinGt, a, b)); p != 1 {
		t.Errorf("P(x+1 > x) = %f, want 1", p)
	}
}

func TestCompareUnrelatedSymbolsIsBottom(t *testing.T) {
	c := calc()
	a := Symbolic(ir.Reg(4))
	b := Symbolic(ir.Reg(5))
	if got := c.Compare(ir.BinLt, a, b); !got.IsBottom() {
		t.Errorf("x<y over distinct ancestors = %v, want ⊥", got)
	}
}

func TestCompareHugeRangesApproximate(t *testing.T) {
	c := calc()
	a := FromRanges(numRange(1, 0, 1_000_000, 1))
	b := FromRanges(numRange(1, 0, 1_000_000, 1))
	got := c.Compare(ir.BinLt, a, b)
	p, ok := c.ProbTrue(got)
	if !ok {
		t.Fatal("huge compare not computable")
	}
	if math.Abs(p-0.5) > 0.02 {
		t.Errorf("P(X<Y) uniform = %f, want ~0.5", p)
	}
	// Equality of huge ranges is ~0.
	got = c.Compare(ir.BinEq, a, b)
	if p, _ := c.ProbTrue(got); p > 0.001 {
		t.Errorf("P(X==Y) huge = %f, want ~0", p)
	}
}

func TestProbTrueMultiRange(t *testing.T) {
	c := calc()
	v := FromRanges(numRange(0.5, 0, 0, 0), numRange(0.5, 1, 10, 1))
	p, ok := c.ProbTrue(v)
	if !ok || !approx(p, 0.5) {
		t.Errorf("ProbTrue = %f, %v", p, ok)
	}
	// A range straddling zero: [−2:2] has 5 values, one of them zero.
	v = FromRanges(numRange(1, -2, 2, 1))
	p, _ = c.ProbTrue(v)
	if !approx(p, 4.0/5) {
		t.Errorf("ProbTrue([-2:2]) = %f, want 0.8", p)
	}
}

func TestBoolConstruction(t *testing.T) {
	c := calc()
	v := c.Bool(0.25)
	if len(v.Ranges) != 2 {
		t.Fatalf("Bool(0.25) = %v", v)
	}
	p, _ := c.ProbTrue(v)
	if !approx(p, 0.25) {
		t.Errorf("ProbTrue(Bool(0.25)) = %f", p)
	}
	if v := c.Bool(0); !mustConst(v, 0) {
		t.Errorf("Bool(0) = %v", v)
	}
	if v := c.Bool(1); !mustConst(v, 1) {
		t.Errorf("Bool(1) = %v", v)
	}
}
