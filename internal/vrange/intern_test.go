package vrange

import (
	"math"
	"sync"
	"testing"

	"vrp/internal/ir"
)

// TestForcedCollisionNotUnified pins the cons table's collision safety:
// structurally different values whose fingerprints are forced equal via
// testFingerprintHook must stay distinct representatives. A hash collision
// may cost an overflow-bucket scan, never a wrong unification. Single
// points and booleans take the same fingerprint path as any other shape,
// so they share the forced bucket too.
func TestForcedCollisionNotUnified(t *testing.T) {
	vals := []Value{
		FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Num(9), Stride: 1}),
		FromRanges(Range{Prob: 1, Lo: Num(100), Hi: Num(200), Stride: 1}),
		FromRanges(Point(1, Num(5))),
		FromRanges(Point(0.25, Num(0)), Point(0.75, Num(1))),
	}
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if vals[i].BitEqual(vals[j]) {
				t.Fatalf("test values %d and %d must differ structurally", i, j)
			}
		}
	}

	testFingerprintHook = func(Value) (uint64, bool) { return 0xdeadbeef, true }
	defer func() { testFingerprintHook = nil }()

	it := NewInterner()
	var hits, misses int64
	reps := make([]Value, len(vals))
	for i, v := range vals {
		reps[i] = it.intern(v, &hits, &misses)
		if !reps[i].BitEqual(v) {
			t.Errorf("representative %d must be bit-equal to its source", i)
		}
	}
	if hits != 0 || misses != int64(len(vals)) {
		t.Fatalf("hits=%d misses=%d, want 0 and %d", hits, misses, len(vals))
	}
	for i := range reps {
		for j := i + 1; j < len(reps); j++ {
			if reps[i].id == reps[j].id {
				t.Fatalf("colliding values %d and %d were unified: id=%d", i, j, reps[i].id)
			}
		}
	}

	// Re-interning under the same forced collision must hit the existing
	// representatives, in both the inline slot and the overflow bucket.
	for i, v := range vals {
		if r := it.intern(v, &hits, &misses); r.id != reps[i].id {
			t.Errorf("re-intern of value %d: id %d, want %d", i, r.id, reps[i].id)
		}
	}
	if hits != int64(len(vals)) || misses != int64(len(vals)) {
		t.Errorf("after re-intern: hits=%d misses=%d, want %d and %d", hits, misses, len(vals), len(vals))
	}
	if it.Size() != len(vals) {
		t.Errorf("Size() = %d, want %d", it.Size(), len(vals))
	}
}

// TestInternIdentity pins the core hash-cons property: producing the same
// canonical value twice through one Interner yields the identical
// representative (same nonzero id), so fixed-point change tests degrade to
// integer compares.
func TestInternIdentity(t *testing.T) {
	c := NewCalc(DefaultConfig())
	x := FromRanges(Range{Prob: 1, Lo: Num(0), Hi: Num(9), Stride: 1})
	y := FromRanges(Range{Prob: 1, Lo: Num(3), Hi: Num(5), Stride: 1})
	a := c.Apply(ir.BinAdd, x, y)
	b := c.Apply(ir.BinAdd, x, y)
	if a.id == 0 || a.id != b.id {
		t.Fatalf("repeated Apply not hash-consed: ids %d, %d", a.id, b.id)
	}
	if k1, k2 := c.ConstVal(7), c.ConstVal(7); k1.id == 0 || k1.id != k2.id {
		t.Errorf("ConstVal not hash-consed: ids %d, %d", k1.id, k2.id)
	}
}

// TestInternOneIDPerContent pins the single intern path: a point or a
// boolean gets one representative whichever constructor or transfer
// function produced it, and content that differs only in a probability
// bit gets its own.
func TestInternOneIDPerContent(t *testing.T) {
	c := NewCalc(DefaultConfig())
	x := c.Canonicalize(FromRanges(numRange(1, 0, 9, 1)))
	mixed := c.Canonicalize(FromRanges(Point(0.25, Num(0)), Point(0.75, Num(5))))
	groups := []struct {
		name string
		vals []Value
	}{
		{"point 7", []Value{
			c.ConstVal(7),
			c.PointVal(Num(7)),
			c.Canonicalize(FromRanges(Point(1, Num(7)))),
			c.Apply(ir.BinAdd, c.ConstVal(3), c.ConstVal(4)),
			c.Refine(x, ir.BinEq, c.ConstVal(7)),
		}},
		{"symbol r3", []Value{
			c.SymbolicVal(ir.Reg(3)),
			c.PointVal(Sym(ir.Reg(3), 0)),
			c.Canonicalize(FromRanges(Point(1, Sym(ir.Reg(3), 0)))),
			c.Apply(ir.BinAdd, c.SymbolicVal(ir.Reg(3)), c.ConstVal(0)),
		}},
		{"boolean 0.25", []Value{
			c.Bool(0.25),
			c.Canonicalize(FromRanges(Point(0.75, Num(0)), Point(0.25, Num(1)))),
			c.Apply(ir.BinLt, mixed, c.ConstVal(3)),
			c.Not(c.Bool(0.75)),
		}},
	}
	ids := map[uint64]string{}
	for _, g := range groups {
		want := g.vals[0]
		if want.id == 0 {
			t.Fatalf("%s: first value %v is not interned", g.name, want)
		}
		for i, v := range g.vals[1:] {
			if v.id != want.id {
				t.Errorf("%s: value %d is %v with id %d, want %v with id %d", g.name, i+1, v, v.id, want, want.id)
			}
		}
		if other, dup := ids[want.id]; dup {
			t.Errorf("%s and %s share id %d", g.name, other, want.id)
		}
		ids[want.id] = g.name
	}
	near := c.intern(FromRanges(Point(math.Nextafter(1, 0), Num(7))))
	if near.id == c.ConstVal(7).id {
		t.Error("a point of probability just below 1 was unified with the exact point")
	}
}

// TestInternSteadyStateAllocFree pins the allocation contract: once a
// transfer function's operands and result are in the tables, re-running it
// performs zero heap allocations.
func TestInternSteadyStateAllocFree(t *testing.T) {
	c := NewCalc(DefaultConfig())
	x := c.Canonicalize(FromRanges(Range{Prob: 0.7, Lo: Num(0), Hi: Num(63), Stride: 1},
		Range{Prob: 0.3, Lo: Num(100), Hi: Num(120), Stride: 2}))
	y := c.Canonicalize(FromRanges(Range{Prob: 1, Lo: Num(1), Hi: Num(7), Stride: 1}))
	items := []Weighted{{Val: x, W: 0.5}, {Val: y, W: 0.5}}

	// Warm every table (intern + memo) once.
	c.Apply(ir.BinAdd, x, y)
	c.Refine(x, ir.BinLt, y)
	c.Merge(items)
	c.ConstVal(42)
	c.PointVal(Sym(ir.Reg(5), 0))
	c.Bool(0.3)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Apply", func() { c.Apply(ir.BinAdd, x, y) }},
		{"Refine", func() { c.Refine(x, ir.BinLt, y) }},
		{"Merge", func() { c.Merge(items) }},
		{"ConstVal", func() { c.ConstVal(42) }},
		{"PointVal", func() { c.PointVal(Sym(ir.Reg(5), 0)) }},
		{"Bool", func() { c.Bool(0.3) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(50, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, n)
		}
	}

	// A Reset + re-intern cycle carves the rewound slabs and refills the
	// cleared table: once slab sizes have reached their steady state, it
	// allocates nothing either.
	it := NewInterner()
	var hits, misses int64
	vals := resetTestValues()
	cycle := func() {
		it.Reset()
		for _, v := range vals {
			it.intern(v, &hits, &misses)
		}
	}
	cycle()
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("Reset + re-intern: %v allocs/op in steady state, want 0", n)
	}
}

// resetTestValues is a mix of multi-range values, single points and
// booleans for the Reset tests.
func resetTestValues() []Value {
	var vals []Value
	for i := 0; i < 600; i++ {
		lo := int64(i * 10)
		vals = append(vals,
			FromRanges(
				Range{Prob: 0.25, Lo: Num(lo), Hi: Num(lo + 5), Stride: 1},
				Range{Prob: 0.75, Lo: Num(lo + 100), Hi: Num(lo + 110), Stride: 2}),
			FromRanges(Point(1, Num(lo))),
			FromRanges(Point(1-float64(i)/1024, Num(0)), Point(float64(i)/1024, Num(1))))
	}
	return vals
}

// TestInternReset pins the recycling contract of Reset: the table ends
// empty but keeps its grown capacity and arena slabs, the dropped entries
// count as evictions, and re-interned values get fresh ids — the global
// counter never rewinds, so no id is ever reused.
func TestInternReset(t *testing.T) {
	it := NewInterner()
	c := NewCalcWith(DefaultConfig(), it)
	vals := resetTestValues()
	old := map[uint64]bool{}
	var reps []Value
	for _, v := range vals {
		r := it.intern(v, &c.InternHits, &c.InternMisses)
		old[r.id] = true
		reps = append(reps, r)
	}
	size, slots := it.Size(), len(it.slots)
	if size != len(vals) || slots <= internInitSlots {
		t.Fatalf("setup: Size()=%d slots=%d, want %d values and a grown table", size, slots, len(vals))
	}
	c.Apply(ir.BinAdd, reps[0], reps[3])
	if c.MemoMisses != 1 {
		t.Fatalf("setup: %d memo misses, want 1 memo entry", c.MemoMisses)
	}
	size, memoSlots, arena, fp := it.Size(), len(it.memoSlots), it.ArenaBytes(), it.Footprint()
	if fp <= arena {
		t.Errorf("Footprint() = %d, want the %d arena bytes plus the slots and memo", fp, arena)
	}

	it.Reset()
	if it.Size() != 0 {
		t.Errorf("Size() after Reset = %d, want 0", it.Size())
	}
	if it.Footprint() != fp {
		t.Errorf("Footprint() after Reset = %d, want %d kept", it.Footprint(), fp)
	}
	if len(it.slots) != slots || len(it.memoSlots) != memoSlots || it.ArenaBytes() != arena {
		t.Errorf("capacity after Reset: slots %d→%d, memo %d→%d, arena %d→%d bytes; want all kept",
			slots, len(it.slots), memoSlots, len(it.memoSlots), arena, it.ArenaBytes())
	}
	if it.Evictions() != int64(size)+1 {
		t.Errorf("Evictions() = %d, want %d (the values and the memo entry dropped by Reset)", it.Evictions(), size+1)
	}

	for i, v := range vals {
		r := it.intern(v, &c.InternHits, &c.InternMisses)
		if old[r.id] {
			t.Fatalf("value %d re-interned after Reset with reused id %d", i, r.id)
		}
		if !r.BitEqual(v) {
			t.Fatalf("value %d: representative %v, want %v", i, r, v)
		}
	}
	if it.ArenaBytes() != arena {
		t.Errorf("re-interning after Reset grew the arena %d→%d bytes, want the rewound slabs reused", arena, it.ArenaBytes())
	}
}

// TestInternWarmTableBitIdentical pins the interning contract: every
// transfer function produces bit-identical values, and identical SubOps
// and Widens accounting, whether its operands miss the table and memo (a
// cold table) or hit them (the same table, warm, under a fresh Calc).
func TestInternWarmTableBitIdentical(t *testing.T) {
	cold := NewCalc(DefaultConfig())
	warm := NewCalcWith(DefaultConfig(), cold.in)

	mk := func(c *Calc) []Value {
		x := c.Canonicalize(FromRanges(Range{Prob: 0.5, Lo: Num(-5), Hi: Num(20), Stride: 1},
			Range{Prob: 0.3, Lo: Num(64), Hi: Num(64), Stride: 0},
			Range{Prob: 0.2, Lo: Num(200), Hi: Num(260), Stride: 4}))
		y := c.Canonicalize(FromRanges(Range{Prob: 0.75, Lo: Num(2), Hi: Num(10), Stride: 2},
			Range{Prob: 0.25, Lo: Num(1000), Hi: Num(1000), Stride: 0}))
		s := c.SymbolicVal(ir.Reg(3))
		var out []Value
		for _, op := range []ir.BinOp{ir.BinAdd, ir.BinSub, ir.BinMul, ir.BinDiv, ir.BinLt, ir.BinEq} {
			out = append(out, c.Apply(op, x, y))
		}
		out = append(out,
			c.Refine(x, ir.BinLt, y),
			c.Refine(y, ir.BinGe, c.ConstVal(4)),
			c.Merge([]Weighted{{Val: x, W: 0.25}, {Val: y, W: 0.75}}),
			c.Neg(y),
			c.Apply(ir.BinAdd, s, y),
			c.Bool(0.3),
			c.PointVal(Num(9)),
		)
		return out
	}

	a := mk(cold)
	b := mk(warm)
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].BitEqual(b[i]) {
			t.Errorf("result %d differs: cold %v, warm %v", i, a[i], b[i])
		}
	}
	if cold.SubOps != warm.SubOps || cold.Widens != warm.Widens {
		t.Errorf("accounting differs: cold SubOps=%d Widens=%d, warm SubOps=%d Widens=%d",
			cold.SubOps, cold.Widens, warm.SubOps, warm.Widens)
	}
	// The comparison is only meaningful if the cold run missed and the
	// warm run hit, and the widening replay only if something widened.
	if cold.MemoMisses == 0 || warm.MemoHits == 0 {
		t.Errorf("memo traffic: cold misses %d, warm hits %d, want both > 0", cold.MemoMisses, warm.MemoHits)
	}
	if warm.MemoMisses != 0 {
		t.Errorf("warm run missed the memo %d times, want 0", warm.MemoMisses)
	}
	if cold.Widens == 0 {
		t.Error("no transfer function widened; the Widens replay is untested")
	}
}

// TestForcedCollisionConcurrentTables pins collision safety under the
// driver's deployment shape: one table per worker, workers interning
// concurrently, every fingerprint forced onto one bucket. Within a table
// no two distinct values may unify; across tables the same content gets
// distinct ids but stays bit-equal (ids are globally unique, so id
// equality implies bit equality while inequality implies nothing).
func TestForcedCollisionConcurrentTables(t *testing.T) {
	testFingerprintHook = func(Value) (uint64, bool) { return 42, true }
	defer func() { testFingerprintHook = nil }()

	mk := func(i int) Value {
		lo := int64(i * 100)
		return FromRanges(
			Range{Prob: 0.5, Lo: Num(lo), Hi: Num(lo + 9), Stride: 1},
			Range{Prob: 0.5, Lo: Num(lo + 50), Hi: Num(lo + 60), Stride: 2})
	}
	const workers, vals = 8, 16

	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			it := NewInterner()
			var hits, misses int64
			ids[w] = make([]uint64, vals)
			for i := 0; i < vals; i++ {
				v := it.intern(mk(i), &hits, &misses)
				if !v.BitEqual(mk(i)) {
					t.Errorf("worker %d: representative %d not bit-equal to source", w, i)
				}
				ids[w][i] = v.id
			}
			// Second pass must hit the existing representatives.
			for i := 0; i < vals; i++ {
				if r := it.intern(mk(i), &hits, &misses); r.id != ids[w][i] {
					t.Errorf("worker %d: re-intern of %d got id %d, want %d", w, i, r.id, ids[w][i])
				}
			}
			if misses != vals || hits != vals {
				t.Errorf("worker %d: hits=%d misses=%d, want %d and %d", w, hits, misses, vals, vals)
			}
		}(w)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	for w := range ids {
		perTable := map[uint64]bool{}
		for i, id := range ids[w] {
			if id == 0 {
				t.Fatalf("worker %d value %d: zero id", w, i)
			}
			if perTable[id] {
				t.Fatalf("worker %d: forced collision unified two values (id %d)", w, id)
			}
			perTable[id] = true
			if seen[id] {
				t.Fatalf("id %d issued by two tables: global counter broken", id)
			}
			seen[id] = true
		}
	}
}

// TestDetachAll pins the one-slab copy: every value keeps its kind, id
// and bits, the copies come from one allocation as full-capacity slices,
// none aliases the original ranges, and a repeated interned value is
// copied once.
func TestDetachAll(t *testing.T) {
	c := NewCalc(DefaultConfig())
	orig := []Value{
		c.Canonicalize(FromRanges(numRange(0.5, 0, 9, 1), numRange(0.5, 20, 30, 2))),
		TopValue(),
		c.ConstVal(7),
		BottomValue(),
		Infeasible(),
		Const(-3),
		c.ConstVal(7),
		Const(-3),
	}
	vs := append([]Value(nil), orig...)
	DetachAll(vs)
	for i, v := range vs {
		o := orig[i]
		if v.kind != o.kind || v.id != o.id || len(v.Ranges) != len(o.Ranges) || !rangesBitEqual(v.Ranges, o.Ranges) {
			t.Fatalf("value %d: detached %v (id %d), original %v (id %d)", i, v, v.id, o, o.id)
		}
		if len(v.Ranges) == 0 {
			continue
		}
		if &v.Ranges[0] == &o.Ranges[0] {
			t.Errorf("value %d still aliases its original ranges", i)
		}
		if cap(v.Ranges) != len(v.Ranges) {
			t.Errorf("value %d: cap %d, want len %d (appends must copy)", i, cap(v.Ranges), len(v.Ranges))
		}
	}
	if &vs[2].Ranges[0] != &vs[6].Ranges[0] {
		t.Error("a repeated interned value was copied twice")
	}
	if &vs[5].Ranges[0] == &vs[7].Ranges[0] {
		t.Error("two uninterned values share one copy")
	}
	if n := testing.AllocsPerRun(10, func() { DetachAll(vs) }); n != 1 {
		t.Errorf("DetachAll: %v allocs, want 1 (one slab for all values)", n)
	}
}
