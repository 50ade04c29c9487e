package vrange

import "math/bits"

// Exact pair counts between two numeric ranges in closed form. A numeric
// range is the arithmetic progression lo + i·s, i ∈ [0,n), so counting the
// pairs (x_i, y_j) that satisfy a relation is a lattice-point count: a
// floor-sum for <, a congruence for ==. Both take O(log stride) integer
// steps regardless of the element counts, which keeps a comparison
// sub-operation constant-time as the §4 cost model assumes.
//
// Every quantity is kept in unsigned 64-bit wrapping arithmetic, which is
// exact whenever the true value lies in [0, 2^64) — in particular for the
// distance between any two int64s in increasing order. Pair totals can
// reach n_x·n_y, so they are 128-bit.

// prog is a numeric range as the progression lo + i·s, i ∈ [0,n).
type prog struct {
	lo   int64
	s, n uint64
}

func progOf(r Range) prog {
	n, _ := r.Count()
	s := r.Stride
	if s <= 0 {
		s = 1
	}
	return prog{lo: r.Lo.Const, s: uint64(s), n: uint64(n)}
}

// top returns the last member, lo + (n-1)·s.
func (p prog) top() int64 { return int64(uint64(p.lo) + (p.n-1)*p.s) }

// upTo returns how many members are ≤ v.
func (p prog) upTo(v int64) uint64 {
	if v < p.lo {
		return 0
	}
	if k := (uint64(v) - uint64(p.lo)) / p.s; k < p.n {
		return k + 1
	}
	return p.n
}

// below returns how many members are < v.
func (p prog) below(v int64) uint64 {
	if v <= p.lo {
		return 0
	}
	return p.upTo(v - 1)
}

// pairsLt returns #{(i,j) : x_i < y_j}. Split x at y's ends: members below
// y.lo are below all n_y members of y; a member v in [y.lo, y.top) is below
// n_y - 1 - ⌊(v - y.lo)/s_y⌋ of them; the rest are below none.
func pairsLt(x, y prog) u128 {
	nb := x.below(y.lo)
	ns := x.below(y.top()) - nb
	pairs := mul64(nb, y.n)
	if ns == 0 {
		return pairs
	}
	// The straddling run is v_k = b + k·s_x over y.lo, k ∈ [0,ns).
	b := uint64(x.lo) + nb*x.s - uint64(y.lo)
	return pairs.add(mul64(ns, y.n-1)).sub(floorSum(ns, y.s, x.s, b))
}

// pairsEq returns #{(i,j) : x_i = y_j}, the common members of the two
// progressions. x_i is a member of y's lattice iff i·s_x ≡ y.lo - x.lo
// (mod s_y), which has solutions iff g = gcd(s_x, s_y) divides the offset,
// and then they are i ≡ i0 (mod s_y/g). Count those i whose x_i lies
// within [y.lo, y.top].
func pairsEq(x, y prog) uint64 {
	g := gcd(x.s, y.s)
	d := modDiff(y.lo, x.lo, y.s)
	if d%g != 0 {
		return 0
	}
	p := y.s / g
	i0 := mulMod(d/g, invMod(x.s/g%p, p), p)
	first, end := x.below(y.lo), x.upTo(y.top())
	first += (i0 + p - first%p) % p
	if first >= end {
		return 0
	}
	return (end-1-first)/p + 1
}

// floorSum returns Σ_{k=0}^{n-1} ⌊(a·k + b)/m⌋ for m > 0 by the Euclid-like
// reduction: strip the integer parts of a/m and b/m, then swap the roles
// of the axes. n never grows, so a·n + b < m·(n+1) keeps each quotient
// within 64 bits. The caller guarantees the sum fits in 128 bits.
func floorSum(n, m, a, b uint64) u128 {
	var sum u128
	for n > 0 {
		if a >= m {
			sum = sum.add(mul64(n, n-1).shr1().mul(a / m))
			a %= m
		}
		if b >= m {
			sum = sum.add(mul64(n, b/m))
			b %= m
		}
		hi, lo := bits.Mul64(a, n)
		lo, carry := bits.Add64(lo, b, 0)
		hi += carry
		if hi == 0 && lo < m {
			break
		}
		n, b = bits.Div64(hi, lo, m)
		m, a = a, m
	}
	return sum
}

// modDiff returns (a - b) mod m in [0, m).
func modDiff(a, b int64, m uint64) uint64 {
	if a >= b {
		return (uint64(a) - uint64(b)) % m
	}
	return (m - (uint64(b)-uint64(a))%m) % m
}

// mulMod returns a·b mod m without overflow.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m)
}

// invMod returns the inverse of a modulo m for coprime a, m (0 when m = 1),
// by the extended Euclidean algorithm. Every operand is below m ≤ 2^63, so
// the Bézout coefficients fit in int64.
func invMod(a, m uint64) uint64 {
	r0, r1 := int64(m), int64(a)
	t0, t1 := int64(0), int64(1)
	for r1 != 0 {
		q := r0 / r1
		r0, r1 = r1, r0-q*r1
		t0, t1 = t1, t0-q*t1
	}
	if t0 < 0 {
		t0 += int64(m)
	}
	return uint64(t0) % m
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// u128 is an unsigned 128-bit integer; arithmetic wraps like uint64's.
type u128 struct{ hi, lo uint64 }

func mul64(a, b uint64) u128 {
	hi, lo := bits.Mul64(a, b)
	return u128{hi, lo}
}

func (u u128) add(v u128) u128 {
	lo, carry := bits.Add64(u.lo, v.lo, 0)
	return u128{u.hi + v.hi + carry, lo}
}

func (u u128) sub(v u128) u128 {
	lo, borrow := bits.Sub64(u.lo, v.lo, 0)
	return u128{u.hi - v.hi - borrow, lo}
}

// mul multiplies by a 64-bit factor, keeping the low 128 bits.
func (u u128) mul(k uint64) u128 {
	p := mul64(u.lo, k)
	p.hi += u.hi * k
	return p
}

func (u u128) shr1() u128 { return u128{u.hi >> 1, u.lo>>1 | u.hi<<63} }

// float converts to the nearest float64 when u < 2^64 (exactly when
// u < 2^53); larger values may round twice.
func (u u128) float() float64 { return float64(u.hi)*0x1p64 + float64(u.lo) }
