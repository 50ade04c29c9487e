package vrp

import (
	"slices"
	"sync/atomic"

	"vrp/internal/callgraph"
	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// interproc holds cross-function state: per-caller jump functions for each
// callee's formals, and return ranges. Formal parameter values are
// recomputed on demand as the weighted merge over callers, so the tables
// converge deterministically across passes.
//
// Storage is dense and indexed by call-graph function index, for two
// reasons. First, determinism: merges iterate callers in function-index
// order, never map order, so float accumulation order — and therefore every
// output bit — is identical run to run and worker count to worker count.
// Second, race freedom: during a parallel wave each running function f only
// writes its own slots (retVals[f], and args[callee][pos-of-f]) and only
// reads slots written by earlier waves, so distinct slice elements are the
// only memory shared between concurrent tasks.
type interproc struct {
	cfg  Config
	prog *ir.Program
	cg   *callgraph.Graph

	// args[callee][i] is the contribution of caller cg.Callers[callee][i]:
	// one merged value per formal, plus that caller's total call frequency
	// into callee. nil until the caller has been analyzed once.
	args    [][]*callerArgs
	retVals []vrange.Value // function index → merged return range

	// scratch holds each function's working buffers and its last formal
	// merge; scratch[f] is touched only by f's own task.
	scratch []ipScratch

	// drops counts symbolic values collapsed to ⊥ at function boundaries
	// by sanitize — the telemetry layer's measure of interprocedural
	// precision loss. Atomic because concurrent wave tasks fold results.
	drops atomic.Int64

	// Recursion widening (Config.RecWidenAfter): pin flags for return
	// ranges and same-SCC argument positions. A slot still moving once
	// recWidenAfter full passes have completed (pass is the driver's
	// 0-based pass index, advanced before each pass's waves launch) is
	// pinned — pass-based rather than per-slot move counting, so every
	// straggler pins in the same pass and late-starting slots cannot
	// cascade past MaxPasses. The race discipline matches args/retVals —
	// retPinned[fi] is touched only by fi's own task, argPinned[ci][pos]
	// only by the task of caller Callers[ci][pos] — so distinct slice
	// elements remain the only shared memory.
	recWidenAfter int
	pass          int
	assumedMag    int64
	recursive     []bool // function index → member of a cyclic SCC
	retPinned     []bool // function index → return range widened
	argPinned     [][]bool
	recWidens     atomic.Int64 // slots pinned; Stats.RecWidens
}

// callerArgs is one caller's jump function into one callee. Once
// installed in args it is never written: update builds the next one in
// scratch and installs a fresh copy only when it differs, so a pointer
// into args identifies its contents.
type callerArgs struct {
	vals []vrange.Value
	w    float64
}

// ipScratch is one function's interprocedural working state. The formal
// merge fields record formals' last merge: the callerArgs it read
// (args[f] at the time), the merged values, and the sub-operations and
// set-cap widenings the merge cost, which a reuse replays.
type ipScratch struct {
	items []vrange.Weighted
	w     []float64 // per call site of the current callee group
	ca    callerArgs

	merged         bool
	from           []*callerArgs
	formals        []vrange.Value
	subOps, widens int64
}

func newInterproc(p *ir.Program, cfg Config, cg *callgraph.Graph) *interproc {
	n := cg.NumFuncs()
	ip := &interproc{
		cfg:     cfg,
		prog:    p,
		cg:      cg,
		args:    make([][]*callerArgs, n),
		retVals: make([]vrange.Value, n),
		scratch: make([]ipScratch, n),
	}
	ip.recWidenAfter = cfg.RecWidenAfter
	ip.assumedMag = cfg.Range.AssumedVarValue
	if ip.assumedMag <= 0 {
		ip.assumedMag = 10
	}
	ip.recursive = make([]bool, n)
	ip.retPinned = make([]bool, n)
	ip.argPinned = make([][]bool, n)
	edges := 0
	for _, callers := range cg.Callers {
		edges += len(callers)
	}
	argArr := make([]*callerArgs, edges)
	pinArr := make([]bool, edges)
	for i := 0; i < n; i++ {
		k := len(cg.Callers[i])
		ip.args[i], argArr = argArr[:k:k], argArr[k:]
		ip.argPinned[i], pinArr = pinArr[:k:k], pinArr[k:]
		ip.recursive[i] = cg.Recursive(cg.SCCID[i])
		if cfg.Interprocedural {
			ip.retVals[i] = vrange.TopValue()
		} else {
			ip.retVals[i] = vrange.BottomValue()
		}
	}
	return ip
}

// numericHull returns the [lo, hi] envelope of a purely numeric set.
// ok is false for ⊤, ⊥, empty sets and sets with symbolic bounds.
func numericHull(v vrange.Value) (lo, hi int64, ok bool) {
	if v.Kind() != vrange.Set || len(v.Ranges) == 0 {
		return 0, 0, false
	}
	for i, r := range v.Ranges {
		if !r.Lo.IsNum() || !r.Hi.IsNum() {
			return 0, 0, false
		}
		if i == 0 || r.Lo.Const < lo {
			lo = r.Lo.Const
		}
		if i == 0 || r.Hi.Const > hi {
			hi = r.Hi.Const
		}
	}
	return lo, hi, true
}

// hullRange builds the single-range probability-1 value [lo:hi].
func hullRange(lo, hi int64) vrange.Value {
	stride := int64(1)
	if lo == hi {
		stride = 0
	}
	return vrange.FromRanges(vrange.Range{Prob: 1, Lo: vrange.Num(lo), Hi: vrange.Num(hi), Stride: stride})
}

// clampMag widens a numeric set to its single hull range clamped into
// [-assumedMag, assumedMag] with probability 1. Non-numeric or non-Set
// values pass through untouched; update only feeds it sanitize output,
// which is numeric.
func (ip *interproc) clampMag(v vrange.Value) vrange.Value {
	lo, hi, ok := numericHull(v)
	if !ok {
		return v
	}
	m := ip.assumedMag
	return hullRange(min(max(lo, -m), m), min(max(hi, -m), m))
}

// pinValue is the value a slot takes at the moment it is pinned: the
// full assumed hull. Saturating immediately — rather than letting
// widenPinned walk the {bound, ±assumedMag} ladder over later passes —
// makes the pin a fixed point of every subsequent merge, so all
// stragglers pinned in the arming pass settle in a single confirming
// pass. That one-pass settling is what lets the default threshold sit
// at MaxPasses-2. Non-numeric values fall back to the clamp.
func (ip *interproc) pinValue(cur vrange.Value) vrange.Value {
	cc := ip.clampMag(cur)
	if _, _, ok := numericHull(cc); !ok {
		return cc
	}
	return hullRange(-ip.assumedMag, ip.assumedMag)
}

// widenPinned folds a freshly computed value into a pinned slot holding
// prev. This is classic interval widening over the clamped hulls: a bound
// that moved outward since prev jumps straight to ±assumedMag, a bound at
// rest (or moving inward) keeps its previous position. The stored hull
// therefore only ever grows, inside the finite ladder
// {prev bound, ±assumedMag} — at most two more moves after the pin — which
// is the termination guarantee for recursive fixpoints whose exact
// descending chain (e.g. ackermann's argument ranges growing one value
// per pass) would outlast MaxPasses.
func (ip *interproc) widenPinned(prev, cur vrange.Value) vrange.Value {
	cc := ip.clampMag(cur)
	pl, ph, ok := numericHull(prev)
	if !ok {
		return cc
	}
	cl, ch, ok := numericHull(cc)
	if !ok {
		return cc
	}
	lo, hi := pl, ph
	if cl < pl {
		lo = -ip.assumedMag
	}
	if ch > ph {
		hi = ip.assumedMag
	}
	return hullRange(lo, hi)
}

// beginPass records the driver's 0-based pass index; widening arms once
// recWidenAfter full passes have completed. Called before the pass's
// waves launch, so tasks observe it without racing.
func (ip *interproc) beginPass(pass int) { ip.pass = pass }

// widenArmed reports whether recursion widening pins moving slots in
// the current pass: the first recWidenAfter passes stay exact.
func (ip *interproc) widenArmed() bool {
	return ip.recWidenAfter > 0 && ip.pass >= ip.recWidenAfter
}

// maybeWidenRet applies recursion widening to a freshly merged return
// range of function fi. A return range still moving after recWidenAfter
// passes is pinned; from then on every merge result is clamped.
func (ip *interproc) maybeWidenRet(fi int, v vrange.Value) vrange.Value {
	if ip.recWidenAfter <= 0 || !ip.recursive[fi] {
		return v
	}
	if ip.retPinned[fi] {
		return ip.widenPinned(ip.retVals[fi], v)
	}
	if v.Equal(ip.retVals[fi]) {
		return v // not a move
	}
	if ip.widenArmed() {
		ip.retPinned[fi] = true
		ip.recWidens.Add(1)
		return ip.pinValue(v)
	}
	return v
}

// formals writes the current values of fi's formals into dst: each the
// weighted merge of the jump functions at the known call sites, iterated
// in caller-index order. With no recorded caller yet a formal is ⊤ in
// interprocedural mode (optimistic: unreached so far), ⊥ otherwise;
// main's formals are always ⊥ (program inputs). Sub-operations accrue to
// the caller-supplied calc (the running engine's), so no counts are lost.
//
// While every contribution is the callerArgs the previous merge read,
// the merge would repeat bit for bit (installed callerArgs are never
// written), so its values are reused and its sub-operations and set-cap
// widenings replayed into calc, as the transfer memo replays a hit.
func (ip *interproc) formals(fi int, dst []vrange.Value, calc *vrange.Calc) {
	if !ip.cfg.Interprocedural || ip.cg.Funcs[fi].Name == "main" {
		for i := range dst {
			dst[i] = vrange.BottomValue()
		}
		return
	}
	sc := &ip.scratch[fi]
	args := ip.args[fi]
	if sc.merged && slices.Equal(sc.from, args) {
		copy(dst, sc.formals)
		calc.SubOps += sc.subOps
		calc.Widens += sc.widens
		return
	}
	subOps0, widens0 := calc.SubOps, calc.Widens
	reached := slices.ContainsFunc(args, func(ca *callerArgs) bool { return ca != nil })
	for idx := range dst {
		if !reached {
			dst[idx] = vrange.TopValue()
			continue
		}
		items := sc.items[:0]
		for _, ca := range args {
			if ca != nil && idx < len(ca.vals) {
				items = append(items, vrange.Weighted{Val: ca.vals[idx], W: ca.w})
			}
		}
		sc.items = items
		dst[idx] = calc.Merge(items)
	}
	sc.merged = true
	sc.from = append(sc.from[:0], args...)
	sc.formals = append(sc.formals[:0], dst...)
	sc.subOps, sc.widens = calc.SubOps-subOps0, calc.Widens-widens0
}

// sanitize strips caller-local symbolic bounds from a value crossing a
// function boundary: the representation's ancestor variables are SSA names
// of a single function. Each collapse to ⊥ is counted in ip.drops.
func (ip *interproc) sanitize(v vrange.Value) vrange.Value {
	if v.Kind() != vrange.Set {
		return v
	}
	for _, r := range v.Ranges {
		if !r.Lo.IsNum() || !r.Hi.IsNum() {
			ip.drops.Add(1)
			return vrange.BottomValue()
		}
	}
	return v
}

// update folds one function run back into the interprocedural tables; it
// reports whether anything lowered (another pass is needed). vals is the
// run's per-register value table, blockFreq its per-block expected
// executions, and calc accumulates merge sub-operations. The values come
// from an engine run normally, or from a degraded ⊥/heuristic result when
// the engine panicked or ran out of budget — folding the degraded values
// keeps callers and callees sound (they see ⊥, never a stale optimistic
// range). Only fi's own slots are written, so concurrent updates of
// call-independent functions within one wave never touch the same memory.
func (ip *interproc) update(fi int, vals []vrange.Value, blockFreq func(*ir.Block) float64, calc *vrange.Calc) bool {
	if !ip.cfg.Interprocedural {
		return false
	}
	f := ip.cg.Funcs[fi]
	sc := &ip.scratch[fi]
	changed := false

	// Return range of f.
	items := sc.items[:0]
	for _, t := range f.Rets {
		if t.A == ir.None {
			continue
		}
		w := blockFreq(t.Block)
		if w <= 0 {
			continue
		}
		items = append(items, vrange.Weighted{Val: ip.sanitize(vals[t.A]), W: w})
	}
	newRet := ip.maybeWidenRet(fi, calc.Merge(items))
	if !newRet.Equal(ip.retVals[fi]) {
		ip.retVals[fi] = newRet
		changed = true
	}

	// Jump functions: actual argument values at every call site in f,
	// weighted by call-site frequency, merged per callee (in callee-index
	// order, for deterministic float accumulation). A callee none of
	// whose call sites runs keeps its previous contribution.
	for _, cs := range ip.cg.Sites[fi] {
		ci, pos := cs.Callee, cs.Pos
		ws := sc.w[:0]
		ca := &sc.ca
		ca.w = 0
		ran := false
		for _, in := range cs.Calls {
			w := blockFreq(in.Block)
			ws = append(ws, w)
			if w <= 0 {
				continue
			}
			ca.w += w
			ran = true
		}
		sc.w = ws
		if !ran {
			continue
		}
		nparams := len(ip.cg.Funcs[ci].Params)
		ca.vals = slices.Grow(ca.vals[:0], nparams)[:nparams]
		for i := range ca.vals {
			items = items[:0]
			for j, in := range cs.Calls {
				if ws[j] <= 0 {
					continue
				}
				var av vrange.Value = vrange.BottomValue()
				if i < len(in.Args) {
					av = ip.sanitize(vals[in.Args[i]])
				}
				items = append(items, vrange.Weighted{Val: av, W: ws[j]})
			}
			ca.vals[i] = calc.Merge(items)
		}
		prev := ip.args[ci][pos]
		// Recursion widening on same-SCC call edges: an argument slot
		// still moving after recWidenAfter passes is pinned and its
		// values widened over the clamped hulls, cutting the cycle that
		// keeps recursive argument ranges (e.g. ackermann's) shifting
		// forever.
		if ip.recWidenAfter > 0 && ip.cg.SCCID[ci] == ip.cg.SCCID[fi] {
			if ip.argPinned[ci][pos] {
				for i := range ca.vals {
					if prev != nil && i < len(prev.vals) {
						ca.vals[i] = ip.widenPinned(prev.vals[i], ca.vals[i])
					} else {
						ca.vals[i] = ip.clampMag(ca.vals[i])
					}
				}
				// Freeze the weight too: frequencies on a recursive
				// cycle edge feed back into themselves (probabilities →
				// block frequencies → merge weights → probabilities)
				// and can orbit forever even with the values pinned.
				// Keeping the pin-time weight makes the pinned slot a
				// true fixed point at the cost of frequency precision
				// on that one edge.
				if prev != nil {
					ca.w = prev.w
				}
			} else if prev != nil && !sameArgs(prev, ca) && ip.widenArmed() {
				ip.argPinned[ci][pos] = true
				ip.recWidens.Add(1)
				for i := range ca.vals {
					ca.vals[i] = ip.pinValue(ca.vals[i])
				}
				// Freeze the weight at pin time too (see above).
				ca.w = prev.w
			}
		}
		if prev == nil || !sameArgs(prev, ca) {
			ip.args[ci][pos] = &callerArgs{vals: slices.Clone(ca.vals), w: ca.w}
			changed = true
		}
	}
	sc.items = items
	return changed
}

func sameArgs(a, b *callerArgs) bool {
	if len(a.vals) != len(b.vals) {
		return false
	}
	const wEps = 1e-6
	if a.w-b.w > wEps || b.w-a.w > wEps {
		return false
	}
	for i := range a.vals {
		if !a.vals[i].Equal(b.vals[i]) {
			return false
		}
	}
	return true
}
