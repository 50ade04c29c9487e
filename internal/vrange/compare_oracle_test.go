package vrange

import (
	"math"
	"math/rand"
	"testing"

	"vrp/internal/ir"
)

// Element-walk oracles for the closed-form pair counts in pairs.go. They
// are the comparison code as it stood before the closed form: one
// satBelow/fracContains call per element of the walked operand, which is
// x when it has at most walkLimit members, else y. Pairs with both
// operands above walkLimit are not walked.

// walkLimit bounds the operand the walks enumerate.
const walkLimit = 4096

// walkFracLt is fracLtNum by enumeration; ok is false when neither operand
// is walkable. Its sum adds integer-valued floats, so it is exact, and
// bit-identical to the closed form, whenever the distances, the counts
// and the pair total stay below 2^53.
func walkFracLt(c *Calc, x, y Range) (p float64, ok bool) {
	nx, _ := x.Count()
	ny, _ := y.Count()
	sum := 0.0
	switch {
	case nx <= walkLimit:
		for v, i := x.Lo.Const, int64(0); i < nx; v, i = v+x.Stride, i+1 {
			sat, ok := c.satBelow(y, Num(v), false) // y <= v
			if !ok && v == math.MaxInt64 {
				// v+1 overflows, but no member of y exceeds MaxInt64.
				sat = float64(ny)
			}
			sum += float64(ny) - sat // y > v  ⇔  v < y
		}
	case ny <= walkLimit:
		for v, i := y.Lo.Const, int64(0); i < ny; v, i = v+y.Stride, i+1 {
			sat, _ := c.satBelow(x, Num(v), true) // x < v
			sum += sat
		}
	default:
		return 0, false
	}
	return clamp01(sum / (float64(nx) * float64(ny))), true
}

// walkFracEq is fracEq's numeric multi-value branch by enumeration; ok is
// false when neither operand is walkable. It accumulates (1/n_y)·n_y per
// match in floating point, so it may differ from the exact count's
// quotient in the last ulp or two.
func walkFracEq(c *Calc, x, y Range) (p float64, ok bool) {
	nx, _ := x.Count()
	ny, _ := y.Count()
	if nx > walkLimit {
		if ny > walkLimit {
			return 0, false
		}
		return walkFracEq(c, y, x)
	}
	matches := 0.0
	for v, i := x.Lo.Const, int64(0); i < nx; v, i = v+x.Stride, i+1 {
		f, _ := c.fracContains(y, Num(v))
		matches += f * float64(ny)
	}
	return clamp01(matches / (float64(nx) * float64(ny))), true
}

// checkClosedForm checks fracLtNum and fracEq on two numeric multi-value
// ranges. On every pair the three fractions P(<), P(>) and P(==) lie in
// [0,1] and sum to one within 1e-9. Where an operand is walkable they are
// checked against the walks above and, on small ranges, against
// brute-force enumeration: the < count must be bit-identical to the walk
// wherever the walk's float sum is exact; the == count may differ from
// the walk's accumulated (1/n_y)·n_y terms by at most 2 ulps.
func checkClosedForm(t *testing.T, c *Calc, x, y Range) {
	t.Helper()
	nx, _ := x.Count()
	ny, _ := y.Count()
	lt, gt := c.fracLtNum(x, y), c.fracLtNum(y, x)
	eq, ok := c.fracEq(x, y)
	if !ok || !(lt >= 0 && lt <= 1) || !(gt >= 0 && gt <= 1) || !(eq >= 0 && eq <= 1) {
		t.Fatalf("P(%v < %v) = %v, P(>) = %v, P(==) = %v (ok %v): want fractions in [0,1]",
			x, y, lt, gt, eq, ok)
	}
	if sum := lt + gt + eq; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("P(%v < %v) = %v, P(>) = %v, P(==) = %v: sum %v, want 1", x, y, lt, gt, eq, sum)
	}
	if w, ok := walkFracLt(c, x, y); ok && (walkExact(x, y) && math.Float64bits(lt) != math.Float64bits(w) ||
		math.Abs(lt-w) > 1e-9) {
		t.Fatalf("P(%v < %v) = %v, walk says %v", x, y, lt, w)
	}
	if w, ok := walkFracEq(c, x, y); ok && ulpDist(eq, w) > 2 {
		t.Fatalf("P(%v == %v) = %v, walk says %v", x, y, eq, w)
	}
	if nx <= 64 && ny <= 64 {
		if want := enumProb(ir.BinLt, x, y); lt != want {
			t.Fatalf("P(%v < %v) = %v, enumeration says %v", x, y, lt, want)
		}
		if want := enumProb(ir.BinEq, x, y); eq != want {
			t.Fatalf("P(%v == %v) = %v, enumeration says %v", x, y, eq, want)
		}
	}
}

// walkExact reports whether walkFracLt's float arithmetic is exact for the
// pair: every distance it divides and every count it adds is below 2^53.
func walkExact(x, y Range) bool {
	nx, _ := x.Count()
	ny, _ := y.Count()
	hull, ok := subOvf(max(x.Hi.Const, y.Hi.Const), min(x.Lo.Const, y.Lo.Const))
	return ok && hull < 1<<53 && float64(nx)*float64(ny) < 1<<53
}

// ulpDist is the number of float64 steps between two non-negative floats.
func ulpDist(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		return -d
	}
	return d
}

// strided builds the numeric range lo + i·s, i ∈ [0,n), for n ≥ 2; ok is
// false when its span does not fit in int64.
func strided(lo, s, n int64) (Range, bool) {
	span, ok := mulOvf(n-1, s)
	if !ok {
		return Range{}, false
	}
	hi, ok := addOvf(lo, span)
	if !ok {
		return Range{}, false
	}
	return Range{Prob: 1, Lo: Num(lo), Hi: Num(hi), Stride: s}, true
}

// genStridedPair draws two overlapping-or-nearby strided ranges: strides
// 1…1000, counts from two to 2^61/stride, placed near 0, within ±2^52, or
// against either int64 edge (the edge bounds of overflow_test.go).
func genStridedPair(r *rand.Rand) (x, y Range) {
	shape := func() (s, n int64) {
		s = int64(r.Intn(1000)) + 1
		if r.Intn(2) == 0 {
			s = int64(r.Intn(8)) + 1
		}
		switch r.Intn(8) {
		case 0, 1, 2:
			n = int64(r.Intn(40)) + 2
		case 3, 4:
			n = int64(r.Intn(2000)) + 2
		case 5, 6:
			n = r.Int63n(1<<40/s) + 2
		default:
			n = r.Int63n(1<<61/s) + 2
		}
		return s, n
	}
	sx, nx := shape()
	sy, ny := shape()
	spanX, spanY := (nx-1)*sx, (ny-1)*sy
	// y.lo sits at x.lo+off, so the two hulls usually overlap.
	off := r.Int63n(spanX+spanY+3) - spanY - 1
	lowest, highest := min(0, off), max(spanX, off+spanY)
	var base int64 // x.lo
	switch r.Intn(4) {
	case 0:
		base = -(lowest+highest)/2 + int64(r.Intn(41)-20)
	case 1:
		base = -(lowest + highest) / 2
		if w := highest - lowest; w < 1<<53 {
			base = -1<<52 - lowest + r.Int63n(1<<53-w)
		}
	case 2:
		base = math.MaxInt64 - highest - int64(r.Intn(3))
	default:
		base = math.MinInt64 - lowest + int64(r.Intn(3))
	}
	x, _ = strided(base, sx, nx)
	y, _ = strided(base+off, sy, ny)
	return x, y
}

// TestClosedFormMatchesWalk: the closed-form counts agree with the element
// walk. Each pair is checked in both orders, so the walk runs over x
// (n_x ≤ walkLimit) and over y (n_y ≤ walkLimit < n_x); pairs with both
// operands above walkLimit get the range and sum checks only.
func TestClosedFormMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	c := calc()
	for i := 0; i < 3000; i++ {
		x, y := genStridedPair(r)
		checkClosedForm(t, c, x, y)
		checkClosedForm(t, c, y, x)
	}
}

// FuzzFracLtClosedForm checks the closed-form pair fractions against the
// walks and enumeration on arbitrary strided ranges whose spans fit in
// int64: strides 1…65536, counts from two to 2^40+1.
func FuzzFracLtClosedForm(f *testing.F) {
	type seed struct {
		xlo, sx, nx, ylo, sy, ny int64
	}
	for _, s := range []seed{
		{math.MaxInt64 - 1, 1, 2, math.MaxInt64 - 1, 1, 2},
		{math.MinInt64, 1, 2, math.MinInt64, 1, 2},
		{math.MaxInt64 - 10, 1, 10, math.MaxInt64 - 6, 3, 3},
		{math.MinInt64 + 1, 1, 10, math.MinInt64, 2, 5},
		{1 << 40, 1, 9, 1<<40 + 3, 4, 3},
		{-20, 2, 10, -5, 1, 11},
		{0, 7, 600, 3, 11, 400},
		{-1 << 52, 1000, 1 << 20, -1<<52 + 999, 999, 1 << 20},
		{0, 1, 5000, 0, 1, 5000},
		// y's float64 extent rounds to zero.
		{math.MinInt64, 8, 571, math.MinInt64 + 971, 1, 19},
		{1<<60 - 100, 1, 1000, 1 << 60, 1, 6},
	} {
		f.Add(s.xlo, uint16(s.sx-1), uint64(s.nx-2), s.ylo, uint16(s.sy-1), uint64(s.ny-2))
	}
	f.Fuzz(func(t *testing.T, xlo int64, xs uint16, xn uint64, ylo int64, ys uint16, yn uint64) {
		x, okx := strided(xlo, int64(xs)+1, int64(xn%(1<<40))+2)
		y, oky := strided(ylo, int64(ys)+1, int64(yn%(1<<40))+2)
		if !okx || !oky {
			return
		}
		checkClosedForm(t, calc(), x, y)
	})
}
