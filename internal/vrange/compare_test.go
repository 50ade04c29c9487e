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

// TestCompareHugeRangesExact: comparisons of ranges of more than 4096
// members are priced by the exact pair counts, like small ones. For two
// copies of [0:4999:1], P(x<y) = 4999/10000 and P(x==y) = 1/5000; the
// strided pair is checked against the closed-form fractions bit for bit
// and against counts made one member at a time.
func TestCompareHugeRangesExact(t *testing.T) {
	c := calc()
	prob := func(op ir.BinOp, x, y Range) float64 {
		t.Helper()
		p, ok := c.ProbTrue(c.Compare(op, FromRanges(x), FromRanges(y)))
		if !ok {
			t.Fatalf("P(%v %v %v) not computable", x, op, y)
		}
		return p
	}
	// countPairs counts the pairs x < y and x == y of two progressions by
	// walking x's members, placing each in y's lattice.
	countPairs := func(x, y Range) (lt, eq int64) {
		ny, _ := y.Count()
		for v := x.Lo.Const; v <= x.Hi.Const; v += x.Stride {
			d := v - y.Lo.Const
			if d < 0 {
				lt += ny
				continue
			}
			lt += max(0, ny-1-d/y.Stride) // members of y above v
			if d%y.Stride == 0 && d/y.Stride < ny {
				eq++
			}
		}
		return lt, eq
	}

	x := numRange(1, 0, 4999, 1)
	if got, want := prob(ir.BinLt, x, x), 4999.0/10000; got != want {
		t.Errorf("P(%v < %v) = %v, want %v", x, x, got, want)
	}
	if got, want := prob(ir.BinEq, x, x), 1.0/5000; got != want {
		t.Errorf("P(%v == %v) = %v, want %v", x, x, got, want)
	}

	// 6000 members of stride 6 against 4500 of stride 9: gcd 3, offset 3.
	x = numRange(1, -1000, -1000+5999*6, 6)
	y := numRange(1, -997, -997+4499*9, 9)
	nx, _ := x.Count()
	ny, _ := y.Count()
	total := float64(nx) * float64(ny)
	lt, eq := countPairs(x, y)
	if lt == 0 || eq == 0 {
		t.Fatalf("degenerate pair: %d pairs <, %d pairs ==", lt, eq)
	}
	for _, tc := range []struct {
		op         ir.BinOp
		closedForm float64
		count      int64
	}{
		{ir.BinLt, pairsLt(progOf(x), progOf(y)).float() / total, lt},
		{ir.BinEq, float64(pairsEq(progOf(x), progOf(y))) / total, eq},
	} {
		got := prob(tc.op, x, y)
		if math.Float64bits(got) != math.Float64bits(tc.closedForm) {
			t.Errorf("P(%v %v %v) = %v, closed form %v", x, tc.op, y, got, tc.closedForm)
		}
		if want := float64(tc.count) / total; got != want {
			t.Errorf("P(%v %v %v) = %v, counted %d/%v = %v", x, tc.op, y, got, tc.count, total, want)
		}
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
