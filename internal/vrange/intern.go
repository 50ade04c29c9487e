package vrange

import (
	"math"
	"sync/atomic"
	"unsafe"

	"vrp/internal/ir"
)

// Hash-consing (interning) gives every distinct canonical Value one shared
// representative carrying a globally unique id. Once two values are
// interned, "are they equal?" degrades from a structural range-by-range
// walk to a single integer comparison — the fixed-point change detectors
// in the propagation engine and the driver's dirty-set test run this
// comparison millions of times per analysis.
//
// The produce side is built so that interning is also a wall-time win, not
// just an allocation win:
//
//   - Representatives' Ranges arrays are carved from per-Interner arena
//     slabs (valueArena) instead of individual make calls, and Reset
//     rewinds the slabs for reuse, so the steady-state intern path
//     performs zero heap allocations.
//   - The cons table is open-addressed with a parallel tag-byte array: a
//     probe touches one byte per non-matching slot, the full 64-bit
//     fingerprint plus a kind/length header gate the range walk, and
//     genuine 64-bit fingerprint collisions spill into a lazily created
//     overflow map so a collision can never unify two values.
//   - Every value goes through that one table, constants, symbols and
//     the two-point boolean of comparisons included, so equal content
//     gets one representative whichever constructor built it.
//
// Soundness rules:
//
//   - Only canonical values are interned (outputs of Canonicalize, the
//     boolean shape of Bool, and trivially canonical point values), so a
//     representative never needs re-canonicalization.
//   - Representatives own their Ranges slice and are immutable by
//     convention; callers must never write through Value.Ranges of an
//     interned value. They stay valid only until the table's next Reset:
//     a value kept beyond that must own its ranges (DetachAll).
//   - Ids come from one process-global atomic counter, so values interned
//     by different tables can never collide on id: id equality always
//     implies bit equality, while id inequality implies nothing (the same
//     content interned in two tables carries two ids, and the equality
//     functions fall back to the structural walk).
//   - Every fingerprint-table lookup is confirmed (header + range walk)
//     before a representative is reused: a hash collision costs an
//     overflow-bucket scan, never a wrong unification
//     (TestForcedCollisionNotUnified pins this).
//
// An Interner must not be shared between concurrently running engines: the
// driver keeps one per worker slot, owned by the goroutine spawned for
// that slot during the current wave (wave barriers give the required
// happens-before for the hand-off between waves and passes).

// Reserved ids for the three contentless lattice values, assigned by their
// constructors so even never-interned code gets the id fast path on them.
const (
	idTop        = 1
	idBottom     = 2
	idInfeasible = 3
	reservedIDs  = 3
)

// idCounter allocates globally unique value ids; 1..reservedIDs are fixed.
var idCounter atomic.Uint64

func init() { idCounter.Store(reservedIDs) }

// ---------------------------------------------------------------- arena

// Arena chunk sizing: chunks start small (most functions intern a few
// hundred ranges) and double up to the cap, so big analyses amortize the
// chunk allocation while small ones stay cheap.
const (
	arenaMinChunk = 256
	arenaMaxChunk = 4096
)

// rangeBytes is the in-memory size of one Range, for the footprint gauge.
var rangeBytes = int64(unsafe.Sizeof(Range{}))

// valueArena hands out Range backing arrays for interned representatives
// from append-only slabs. Carved slices are full (len == cap), so an
// accidental append by a caller copies instead of clobbering a neighbour.
// rewind makes every held slab carvable again; it is only legal once no
// value carved from the arena is in use, since recycled memory will be
// overwritten.
type valueArena struct {
	cur   []Range   // current slab being carved
	used  int       // carve offset into cur
	slabs [][]Range // every slab held, in carve order
	reuse int       // index in slabs of the next held slab to carve
	next  int       // size of the next fresh slab
	bytes int64     // total bytes held across all slabs (footprint)
}

// alloc carves an owned, full-capacity slice of n ranges.
func (a *valueArena) alloc(n int) []Range {
	if n > len(a.cur)-a.used {
		a.grab(n)
	}
	s := a.cur[a.used : a.used+n : a.used+n]
	a.used = a.used + n
	return s
}

// grab installs a slab with room for at least n ranges, preferring a held
// slab that rewind made carvable again.
func (a *valueArena) grab(n int) {
	a.used = 0
	for a.reuse < len(a.slabs) {
		a.cur = a.slabs[a.reuse]
		a.reuse++
		if len(a.cur) >= n {
			return
		}
	}
	sz := a.next
	if sz < arenaMinChunk {
		sz = arenaMinChunk
	}
	if sz > arenaMaxChunk {
		sz = arenaMaxChunk
	}
	if sz < n {
		sz = n
	}
	a.next = sz * 2
	a.cur = make([]Range, sz)
	a.slabs = append(a.slabs, a.cur)
	a.reuse = len(a.slabs)
	a.bytes += int64(sz) * rangeBytes
}

// rewind makes every held slab carvable again, keeping them all.
func (a *valueArena) rewind() {
	a.cur, a.used, a.reuse = nil, 0, 0
}

// ---------------------------------------------------------------- memo

// memoKey identifies one fixed-arity transfer-function application by the
// interned ids of its operands. Ids globally identify content, so an exact
// key match guarantees an identical computation — no verification needed.
type memoKey struct {
	op   uint32 // ir.BinOp, or one of the memoOp* codes
	a, b uint64 // operand ids (b == 0 for unary ops)
}

// Operation codes beyond ir.BinOp for the fixed-arity memo table.
const (
	memoOpRefineBase = 0x100 // + ir.BinOp relation
	memoOpNeg        = 0x200
	memoOpNot        = 0x201
)

// memoEntry stores a transfer function's interned result together with the
// counter deltas the computation produced, so a memo hit replays exactly
// the SubOps/Widens accounting of a recomputation (Stats stay bit-identical
// whether or not the cache hits).
type memoEntry struct {
	result Value
	subOps int64
	widens int64
}

// memoCap bounds the live entries of the transfer-function memo. When the
// table fills up it is cleared (epoch eviction): O(1) bookkeeping, no
// recency tracking on the hot path. Eviction only ever costs
// recomputation, never correctness: entries replay exact result/counter
// deltas, so hit rates change wall-clock only. The driver runs the memo
// only on warm pooled tables, which hold at most its 2¹⁵-value pool bound
// when handed out, so one fixed bound serves every table. Slots are
// allocated on the first store.
const (
	memoCap       = 1 << 14
	memoInitSlots = 256
)

type memoSlot struct {
	key memoKey
	ent memoEntry
}

// ---------------------------------------------------------------- tables

// tagOf derives the one-byte probe tag from a fingerprint: seven high bits
// plus a forced marker bit so a tag is never 0 (empty).
func tagOf(fp uint64) uint8 { return uint8(fp>>57) | 0x80 }

// internSlot is one open-addressed cons-table entry: the full fingerprint
// (re-derivable from val, but stored so probes never rehash) and the
// representative.
type internSlot struct {
	fp  uint64
	val Value
}

const internInitSlots = 256

// Interner is a hash-cons table plus the transfer-function memo keyed on
// interned ids. Like any expression table the memo pays only when
// expressions recur, so each table has a switch (SetMemo): the driver
// turns it on only for a warm pooled table, where it hits on every lookup
// on the corpus and vrpd's edit loop, and off for a new or Reset one,
// where it hit 19–23% of gen-10k lookups. The zero value is not ready;
// use NewInterner.
type Interner struct {
	// Open-addressed fingerprint table: tags[i] == 0 means slot i is
	// empty; otherwise tags[i] == tagOf(slots[i].fp). Linear probing,
	// power-of-two capacity, grown at ¾ load. Lookups stop at the first
	// slot whose full fingerprint matches: later values with the same
	// fingerprint always live in overflow.
	tags  []uint8
	slots []internSlot
	mask  uint64
	live  int // occupied slots
	grow  int // live threshold that triggers doubling

	overflow map[uint64][]Value // extra values per truly colliding fingerprint

	// memo switches the transfer memo: when false, Calc.memoized computes
	// directly, neither looking up nor storing.
	memo bool

	// Transfer-function memo, open-addressed like the cons table; no
	// slots until the first store.
	memoTags  []uint8
	memoSlots []memoSlot
	memoMask  uint64
	memoLive  int
	memoGrow  int

	ar valueArena

	evictions int64 // entries dropped by memo epoch evictions and Reset
}

// NewInterner returns an empty cons table.
func NewInterner() *Interner {
	return NewInternerSized(0)
}

// NewInternerSized returns an empty cons table pre-sized for roughly hint
// live values. Growing an open-addressed table is an allocate-and-rehash
// of every occupied slot, and a table that starts at the minimum size pays
// that cost log2(n/min) times per analysis; a caller that can bound the
// value population up front (the driver knows the program's instruction
// count) skips all of it. The hint is a capacity, not a limit — an
// undersized table still grows normally.
func NewInternerSized(hint int) *Interner {
	it := &Interner{memo: true}
	it.initTable(sizeFor(hint+hint/3, internInitSlots, 1<<22))
	return it
}

// SetMemo switches the transfer-function memo on or off for every Calc
// sharing the table. Off, transfer functions compute directly and
// allocate nothing; entries already held stay for a later switch on.
// Results and SubOps/Widens accounting are the same either way; only the
// memo traffic counters differ. A new table starts with its memo on.
func (it *Interner) SetMemo(on bool) { it.memo = on }

// sizeFor rounds want up to a power of two within [min, max]. min and max
// must themselves be powers of two.
func sizeFor(want, min, max int) int {
	n := min
	for n < want && n < max {
		n <<= 1
	}
	return n
}

func (it *Interner) initTable(n int) {
	it.tags = make([]uint8, n)
	it.slots = make([]internSlot, n)
	it.mask = uint64(n - 1)
	it.grow = n - n/4
}

func (it *Interner) initMemo(n int) {
	it.memoTags = make([]uint8, n)
	it.memoSlots = make([]memoSlot, n)
	it.memoMask = uint64(n - 1)
	it.memoGrow = min(n-n/4, memoCap)
}

// growTable doubles the cons table and rehashes the occupied slots.
func (it *Interner) growTable() {
	oldTags, oldSlots := it.tags, it.slots
	it.initTable(len(oldSlots) * 2)
	for idx, t := range oldTags {
		if t == 0 {
			continue
		}
		s := oldSlots[idx]
		i := s.fp & it.mask
		for it.tags[i] != 0 {
			i = (i + 1) & it.mask
		}
		it.tags[i] = t
		it.slots[i] = s
	}
}

// intern returns the canonical representative of v, creating one (with a
// fresh global id and an arena-owned copy of the ranges) on first sight.
// v's Ranges may alias caller scratch: they are only read, and copied on a
// miss.
func (it *Interner) intern(v Value, hits, misses *int64) Value {
	return it.probeFP(v, fingerprintRaw(v), hits, misses)
}

// probeFP is the cons-table path: tag-byte linear probing on the
// fingerprint, header (kind, length) rejection, then the range walk only
// on a surviving candidate. fp is v's fingerprint, computed by intern or
// accumulated while Canonicalize built the ranges.
func (it *Interner) probeFP(v Value, fp uint64, hits, misses *int64) Value {
	if testFingerprintHook != nil {
		if hfp, ok := testFingerprintHook(v); ok {
			fp = hfp
		}
	}
	tag := tagOf(fp)
	i := fp & it.mask
	for {
		t := it.tags[i]
		if t == 0 {
			break // fingerprint not present: fresh miss, slot i is the hole
		}
		if t == tag && it.slots[i].fp == fp {
			cand := it.slots[i].val
			if cand.kind == v.kind && len(cand.Ranges) == len(v.Ranges) &&
				rangesBitEqual(cand.Ranges, v.Ranges) {
				*hits++
				return cand
			}
			for _, c2 := range it.overflow[fp] {
				if c2.kind == v.kind && len(c2.Ranges) == len(v.Ranges) &&
					rangesBitEqual(c2.Ranges, v.Ranges) {
					*hits++
					return c2
				}
			}
			// True 64-bit collision: the new representative joins the
			// overflow bucket; the inline slot keeps its first owner.
			*misses++
			owned := it.own(v)
			if it.overflow == nil {
				it.overflow = make(map[uint64][]Value)
			}
			it.overflow[fp] = append(it.overflow[fp], owned)
			return owned
		}
		i = (i + 1) & it.mask
	}
	*misses++
	owned := it.own(v)
	if it.live >= it.grow {
		it.growTable()
		i = fp & it.mask
		for it.tags[i] != 0 {
			i = (i + 1) & it.mask
		}
	}
	it.tags[i] = tag
	it.slots[i] = internSlot{fp: fp, val: owned}
	it.live++
	return owned
}

// own copies v into an arena-backed representative with a fresh id.
func (it *Interner) own(v Value) Value {
	owned := Value{kind: v.kind, id: idCounter.Add(1)}
	if len(v.Ranges) > 0 {
		dst := it.ar.alloc(len(v.Ranges))
		copy(dst, v.Ranges)
		owned.Ranges = dst
	}
	return owned
}

// rangesBitEqual is the confirm walk over equal-length range slices.
func rangesBitEqual(a, b []Range) bool {
	for i := range a {
		x, y := a[i], b[i]
		if x.Lo != y.Lo || x.Hi != y.Hi || x.Stride != y.Stride ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) {
			return false
		}
	}
	return true
}

// memoHash spreads a memo key over 64 bits; ids are dense small integers,
// so both words go through the finalizer.
func memoHash(k memoKey) uint64 {
	return mix64(k.a ^ mix64(k.b^uint64(k.op)<<32))
}

// memoGet looks up a fixed-arity transfer-function application.
func (it *Interner) memoGet(k memoKey) (memoEntry, bool) {
	if it.memoLive == 0 {
		return memoEntry{}, false // also: no slots before the first store
	}
	h := memoHash(k)
	tag := tagOf(h)
	i := h & it.memoMask
	for {
		t := it.memoTags[i]
		if t == 0 {
			return memoEntry{}, false
		}
		if t == tag && it.memoSlots[i].key == k {
			return it.memoSlots[i].ent, true
		}
		i = (i + 1) & it.memoMask
	}
}

// memoPut stores a fixed-arity result, allocating the slots on the first
// store, growing the table up to its cap and epoch-evicting beyond it.
// Stale slots left behind by an eviction are unreachable (probes are
// gated by the cleared tags) and get overwritten as the table refills.
func (it *Interner) memoPut(k memoKey, e memoEntry) {
	if it.memoLive >= it.memoGrow {
		if len(it.memoSlots) < 2*memoCap {
			it.growMemo()
		} else {
			it.evictions += int64(it.memoLive)
			clear(it.memoTags)
			it.memoLive = 0
		}
	}
	h := memoHash(k)
	i := h & it.memoMask
	for it.memoTags[i] != 0 {
		i = (i + 1) & it.memoMask
	}
	it.memoTags[i] = tagOf(h)
	it.memoSlots[i] = memoSlot{key: k, ent: e}
	it.memoLive++
}

func (it *Interner) growMemo() {
	oldTags, oldSlots := it.memoTags, it.memoSlots
	it.initMemo(max(2*len(oldSlots), memoInitSlots))
	for idx, t := range oldTags {
		if t == 0 {
			continue
		}
		s := oldSlots[idx]
		i := memoHash(s.key) & it.memoMask
		for it.memoTags[i] != 0 {
			i = (i + 1) & it.memoMask
		}
		it.memoTags[i] = t
		it.memoSlots[i] = s
	}
}

// Size reports the number of distinct interned values (for telemetry,
// benchmarks and diagnostics).
func (it *Interner) Size() int {
	n := it.live
	for _, bucket := range it.overflow {
		n += len(bucket)
	}
	return n
}

// ArenaBytes reports the memory footprint of the arena slabs, rewound
// ones included.
func (it *Interner) ArenaBytes() int64 { return it.ar.bytes }

// Footprint reports the bytes the table holds whether or not it is in
// use: the cons-table slots, the memo slots and the arena slabs.
func (it *Interner) Footprint() int64 {
	slot := int64(unsafe.Sizeof(internSlot{})) + 1
	memo := int64(unsafe.Sizeof(memoSlot{})) + 1
	return int64(len(it.slots))*slot + int64(len(it.memoSlots))*memo + it.ar.bytes
}

// Evictions reports the total entries dropped by memo epoch evictions
// and Reset calls over the Interner's lifetime.
func (it *Interner) Evictions() int64 { return it.evictions }

// Reset empties the table for reuse by another analysis: it drops every
// interned value and memo entry and rewinds the arena, keeping the slabs
// and all table capacity. The global id counter is untouched, so ids stay
// unique for the life of the process. Reset is only legal once no value
// this table produced is still in use anywhere, since the rewound slabs
// will be overwritten; the driver resets a table only after the run's
// results own their ranges (DetachAll).
func (it *Interner) Reset() {
	it.evictions += int64(it.Size()) + int64(it.memoLive)
	clear(it.tags)
	it.live = 0
	it.overflow = nil
	clear(it.memoTags)
	it.memoLive = 0
	it.ar.rewind()
}

// ---------------------------------------------------------------- Calc API

// intern routes a produced value through the cons table.
func (c *Calc) intern(v Value) Value {
	if v.kind == Set && len(v.Ranges) == 0 {
		return Infeasible()
	}
	return c.in.intern(v, &c.InternHits, &c.InternMisses)
}

// internFused is intern for the fused-hash path: fp is the fingerprint
// already accumulated while the ranges were built (Canonicalize). Only
// called with a nonempty, not yet interned Set.
func (c *Calc) internFused(v Value, fp uint64) Value {
	return c.in.probeFP(v, fp, &c.InternHits, &c.InternMisses)
}

// ConstVal is the interned form of Const: the hot path for OpConst
// evaluation and assertion constants.
func (c *Calc) ConstVal(k int64) Value { return c.PointVal(Num(k)) }

// SymbolicVal is the interned form of Symbolic.
func (c *Calc) SymbolicVal(v ir.Reg) Value { return c.PointVal(Sym(v, 0)) }

// PointVal is the interned single-point value {1[b:b:0]}, built in
// scratch and copied out only on a table miss.
func (c *Calc) PointVal(b Bound) Value {
	c.small[0] = Point(1, b)
	return c.intern(Value{kind: Set, Ranges: c.small[:1]})
}

// memoized wraps a fixed-arity transfer function: operands must both be
// interned (nonzero id) for the cache to apply — an id uniquely identifies
// content, so the key needs no verification; otherwise the computation
// runs directly, as it does on a table whose memo is off (SetMemo).
// Unary operations pass TopValue() as the b sentinel (their op codes are
// disjoint from the binary ones, so no key can collide). On a hit the
// stored SubOps/Widens deltas are replayed so the accounting is identical
// to a recomputation.
func (c *Calc) memoized(op uint32, a, b Value, compute func() Value) Value {
	if !c.in.memo || a.id == 0 || b.id == 0 {
		return compute()
	}
	k := memoKey{op: op, a: a.id, b: b.id}
	if e, ok := c.in.memoGet(k); ok {
		c.MemoHits++
		c.SubOps += e.subOps
		c.Widens += e.widens
		return e.result
	}
	c.MemoMisses++
	s0, w0 := c.SubOps, c.Widens
	v := compute()
	c.in.memoPut(k, memoEntry{result: v, subOps: c.SubOps - s0, widens: c.Widens - w0})
	return v
}
