package vrange

import (
	"testing"

	"vrp/internal/ir"
)

func TestClassify(t *testing.T) {
	x := ir.Reg(3)
	cases := []struct {
		name  string
		v     Value
		class ValueClass
		width int64
	}{
		{"top", TopValue(), ClassTop, 0},
		{"bottom", BottomValue(), ClassBottom, 0},
		{"infeasible", Infeasible(), ClassInfeasible, 0},
		{"point", Const(7), ClassPoint, 0},
		{"multi-point", FromRanges(numRange(0.5, 1, 1, 1), numRange(0.5, 9, 9, 1)), ClassPoint, 0},
		{"narrow", FromRanges(numRange(1, 0, NarrowWidth, 1)), ClassNarrow, NarrowWidth},
		{"wide", FromRanges(numRange(1, 0, NarrowWidth+1, 1)), ClassWide, NarrowWidth + 1},
		{"symbolic", Symbolic(x), ClassSymbolic, 0},
		{"symbolic-bound", FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Sym(x, 0), Stride: 1}), ClassSymbolic, 0},
	}
	for _, tc := range cases {
		c, w := Classify(tc.v)
		if c != tc.class || w != tc.width {
			t.Errorf("%s: Classify = (%v, %d), want (%v, %d)", tc.name, c, w, tc.class, tc.width)
		}
	}
}

func TestPrecisionRankOrdersClasses(t *testing.T) {
	order := []ValueClass{ClassInfeasible, ClassPoint, ClassNarrow, ClassWide, ClassSymbolic, ClassTop, ClassBottom}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("class %v (%d) not below %v (%d)", order[i-1], order[i-1], order[i], order[i])
		}
	}
}

func TestMergeLoss(t *testing.T) {
	narrow := FromRanges(numRange(1, 0, 10, 1))
	wide := FromRanges(numRange(1, 0, 1000, 1))
	cases := []struct {
		name string
		out  Value
		in   []Weighted
		want bool
	}{
		{"identical-inputs-no-loss", narrow, []Weighted{{Val: narrow, W: 0.5}, {Val: narrow, W: 0.5}}, false},
		{"point-input-makes-range-a-loss", narrow, []Weighted{{Val: Const(0), W: 0.5}, {Val: narrow, W: 0.5}}, true},
		{"hull-growth-same-rank", FromRanges(numRange(1, 0, 20, 1)), []Weighted{{Val: narrow, W: 1}}, true},
		{"rank-coarsening", wide, []Weighted{{Val: narrow, W: 0.5}, {Val: Const(3), W: 0.5}}, true},
		{"demoted-to-bottom", BottomValue(), []Weighted{{Val: narrow, W: 1}}, true},
		{"top-inputs-ignored", narrow, []Weighted{{Val: TopValue(), W: 0.5}, {Val: narrow, W: 0.5}}, false},
		{"all-top-never-loses", BottomValue(), []Weighted{{Val: TopValue(), W: 1}}, false},
		{"refinement-is-not-loss", Const(3), []Weighted{{Val: narrow, W: 1}}, false},
	}
	for _, tc := range cases {
		if got := MergeLoss(tc.out, tc.in); got != tc.want {
			t.Errorf("%s: MergeLoss = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRefineGain(t *testing.T) {
	narrow := FromRanges(numRange(1, 0, 10, 1))
	cases := []struct {
		name            string
		parent, refined Value
		want            bool
	}{
		{"narrower-hull", narrow, FromRanges(numRange(1, 0, 5, 1)), true},
		{"rank-improvement", narrow, Const(3), true},
		{"no-change", narrow, narrow, false},
		{"coarsening-is-not-gain", narrow, FromRanges(numRange(1, 0, 20, 1)), false},
		{"top-parent-skipped", TopValue(), Const(3), false},
		{"infeasible-result", narrow, Infeasible(), true},
	}
	for _, tc := range cases {
		if got := RefineGain(tc.parent, tc.refined); got != tc.want {
			t.Errorf("%s: RefineGain = %v, want %v", tc.name, got, tc.want)
		}
	}
}
