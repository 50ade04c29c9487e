package vrange

import (
	"testing"

	"vrp/internal/ir"
)

// Micro-benchmarks for the range algebra hot paths: the §4 cost model says
// each expression evaluation performs up to R² (=16) pair sub-operations;
// these measure the absolute cost of one pair.

func BenchmarkApplyAdd(b *testing.B) {
	c := calc()
	x := FromRanges(numRange(0.7, 32, 256, 1), numRange(0.3, 3, 21, 3))
	y := FromRanges(numRange(0.6, 16, 100, 4), numRange(0.4, 8, 8, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Apply(ir.BinAdd, x, y)
	}
}

func BenchmarkCompareNumeric(b *testing.B) {
	c := calc()
	x := FromRanges(numRange(1, 0, 999, 1))
	y := FromRanges(numRange(1, 500, 1500, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compare(ir.BinLt, x, y)
	}
}

func BenchmarkCompareSymbolic(b *testing.B) {
	c := calc()
	n := ir.Reg(9)
	i := FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Sym(n, 0), Stride: 1})
	pt := Symbolic(n)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		c.Compare(ir.BinLt, i, pt)
	}
}

func BenchmarkRefine(b *testing.B) {
	c := calc()
	x := FromRanges(numRange(1, 0, 1000, 1))
	k := Const(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Refine(x, ir.BinLt, k)
	}
}

func BenchmarkMerge4(b *testing.B) {
	c := calc()
	items := []Weighted{
		{Val: FromRanges(numRange(1, 0, 9, 1)), W: 0.4},
		{Val: FromRanges(numRange(1, 10, 19, 1)), W: 0.3},
		{Val: FromRanges(numRange(1, 20, 29, 1)), W: 0.2},
		{Val: Const(42), W: 0.1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Merge(items)
	}
}

func BenchmarkCanonicalizeCap(b *testing.B) {
	c := NewCalc(DefaultConfig())
	rs := make([]Range, 8)
	for i := range rs {
		rs[i] = numRange(0.125, int64(i*10), int64(i*10+5), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := Value{kind: Set, Ranges: append([]Range(nil), rs...)}
		c.Canonicalize(in)
	}
}

// BenchmarkCompareWide compares two ranges of 4096 members each with
// distinct strides: the exact pair count is closed-form, so its cost does
// not grow with the operands' sizes.
func BenchmarkCompareWide(b *testing.B) {
	c := calc()
	x := FromRanges(numRange(1, 0, 4095*3, 3))
	y := FromRanges(numRange(1, 1000, 1000+4095*5, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compare(ir.BinLt, x, y)
	}
}
