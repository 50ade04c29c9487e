package vrp

import (
	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// Loop-carried derivation (§3.6): a loop-carried variable's range is found
// without executing the loop by matching its derivation against the
// template
//
//	new value = old value ± {set of possible increments}
//	assert(new value between specific bounds)
//
// The walker follows the SSA chain backwards from each back-edge operand
// of the header φ to the φ itself, accumulating increments (from
// constant-operand adds/subs) and bound assertions (from π-instructions on
// the chain). Intermediate φs — joins of complementary assertion families
// or of several increment paths — fan the walk out into multiple paths.
// If every path matches, the φ's range is
//
//	{ 1 [ init_lo : tightest_bound + overshoot : gcd(increments) ] }
//
// (mirrored for down-counting loops). Any mismatch fails the derivation
// and the engine falls back to brute-force propagation, exactly as the
// paper prescribes ("one should view derivation matching as an efficiency
// optimization").

type deriveStatus int

const (
	deriveOK deriveStatus = iota
	deriveNotReady
	deriveFail
)

const (
	maxDerivePaths = 16
	maxDeriveSteps = 512
)

// pathResult is the walk outcome for one latch-to-φ path.
type pathResult struct {
	inc    int64 // net increment applied per trip along this path
	hasInc bool
	// Effective bounds on the φ value implied by asserts on the path
	// (already adjusted by increments applied after the test).
	uppers []vrange.Bound
	lowers []vrange.Bound
}

// walker is the derivation chain matcher. One instance lives in each
// function's engineScratch and is recycled across derivation attempts:
// paths/deps restart empty per derive, uppers/lowers/onPath are stacks
// maintained with push-on-entry/pop-on-return discipline, so steady-state
// walks never allocate.
type walker struct {
	e     *engine
	phi   *ir.Instr
	steps int
	paths []pathResult
	state deriveStatus
	deps  []ir.Reg // registers consulted; value changes re-trigger derivation

	uppers []vrange.Bound // bounds collected along the current path
	lowers []vrange.Bound
	onPath []bool // by register: on the current walk stack
}

// derive attempts the template match for a loop-header φ.
func (e *engine) derive(phi *ir.Instr) (vrange.Value, deriveStatus) {
	b := phi.Block
	sc := e.sc

	// Initial value: merge of the operands arriving on forward edges.
	initItems := sc.dvItems[:0]
	initRegs := sc.dvRegs[:0]
	backOps := sc.dvBack[:0]
	for i, pe := range b.Preds {
		if e.backEdges[pe.ID] {
			backOps = append(backOps, phi.Args[i])
			continue
		}
		initRegs = append(initRegs, phi.Args[i])
		initItems = append(initItems, vrange.Weighted{Val: e.val[phi.Args[i]], W: 1})
	}
	sc.dvItems, sc.dvRegs, sc.dvBack = initItems[:0], initRegs[:0], backOps[:0]
	if len(backOps) == 0 || len(initRegs) == 0 {
		return vrange.Value{}, deriveFail
	}
	initVal := e.calc.Merge(initItems)
	if initVal.IsTop() {
		return vrange.Value{}, deriveNotReady
	}

	w := &sc.dw
	w.e, w.phi, w.steps, w.state = e, phi, 0, deriveOK
	w.paths = w.paths[:0]
	w.deps = w.deps[:0]
	w.uppers = w.uppers[:0]
	w.lowers = w.lowers[:0]
	for _, r := range initRegs {
		w.deps = append(w.deps, r)
	}
	for _, op := range backOps {
		w.walk(op, 0)
		if w.state != deriveOK {
			break
		}
	}
	if w.state == deriveOK && len(w.paths) == 0 {
		w.state = deriveFail
	}
	if w.state != deriveOK {
		if w.state == deriveNotReady {
			e.recordDeriveDeps(phi, w.deps)
		}
		return vrange.Value{}, w.state
	}

	v, st := e.combinePaths(phi, initVal, initRegs, w.paths)
	e.recordDeriveDeps(phi, w.deps)
	return v, st
}

func (e *engine) recordDeriveDeps(phi *ir.Instr, deps []ir.Reg) {
	for _, r := range deps {
		found := false
		for _, p := range e.deriveDeps[r] {
			if p == phi {
				found = true
				break
			}
		}
		if !found {
			e.deriveDeps[r] = append(e.deriveDeps[r], phi)
		}
	}
}

// walk follows the chain backwards from reg, with inc the net increment
// applied after the current position (later in program order). The
// uppers/lowers bound stacks and the onPath marks live on the walker and
// are restored on return; a completed path copies the stacks into its
// pathResult.
func (w *walker) walk(reg ir.Reg, inc int64) {
	if w.state != deriveOK {
		return
	}
	w.steps++
	if w.steps > maxDeriveSteps || len(w.paths) > maxDerivePaths {
		w.state = deriveFail
		return
	}
	if w.onPath[reg] {
		w.state = deriveFail // cycle through an inner structure
		return
	}
	def := w.e.f.Defs[reg]
	if def == nil {
		w.state = deriveFail
		return
	}
	if def == w.phi {
		var us, ls []vrange.Bound
		if len(w.uppers) > 0 {
			us = append([]vrange.Bound(nil), w.uppers...)
		}
		if len(w.lowers) > 0 {
			ls = append([]vrange.Bound(nil), w.lowers...)
		}
		w.paths = append(w.paths, pathResult{inc: inc, hasInc: true, uppers: us, lowers: ls})
		return
	}
	w.onPath[reg] = true
	defer func() { w.onPath[reg] = false }()

	switch def.Op {
	case ir.OpCopy:
		w.walk(def.A, inc)

	case ir.OpAssert:
		if u, l, hasU, hasL, st := w.e.assertEffectiveBounds(def, inc); st != deriveOK {
			if st == deriveNotReady {
				w.state = deriveNotReady
			}
			// Unusable asserts (e.g. !=) are transparent.
			w.walk(def.Parent, inc)
			return
		} else {
			nu, nl := len(w.uppers), len(w.lowers)
			if hasU {
				w.uppers = append(w.uppers, u)
			}
			if hasL {
				w.lowers = append(w.lowers, l)
			}
			w.walk(def.Parent, inc)
			w.uppers = w.uppers[:nu]
			w.lowers = w.lowers[:nl]
		}

	case ir.OpBin:
		switch def.BinOp {
		case ir.BinAdd:
			if k, st := w.constOperand(def.B); st == deriveOK {
				w.walk(def.A, inc+k)
				return
			} else if st == deriveNotReady {
				w.state = deriveNotReady
				return
			}
			if k, st := w.constOperand(def.A); st == deriveOK {
				w.walk(def.B, inc+k)
				return
			} else if st == deriveNotReady {
				w.state = deriveNotReady
				return
			}
			w.state = deriveFail
		case ir.BinSub:
			if k, st := w.constOperand(def.B); st == deriveOK {
				w.walk(def.A, inc-k)
				return
			} else if st == deriveNotReady {
				w.state = deriveNotReady
				return
			}
			w.state = deriveFail
		default:
			w.state = deriveFail
		}

	case ir.OpPhi:
		// An intermediate join: every operand continues the same path
		// prefix (typically the merge of an if/else inside the loop body).
		// An operand that chases — through copies and assertions only —
		// back to this φ or to a register already on the path is a
		// runtime-identity back-reference through an inner cycle (the
		// assertion versioning of a variable the inner loop never
		// modifies); it carries no new increments or bounds and is
		// skipped rather than walked into a cycle failure.
		walked := false
		for _, a := range def.Args {
			o := w.e.chaseCopyAssert(a, def.Dst)
			if o == def.Dst || w.onPath[o] {
				continue
			}
			w.walk(a, inc)
			if w.state != deriveOK {
				return
			}
			walked = true
		}
		if !walked {
			w.state = deriveFail // pure cycle: no forward path to the header
		}

	default:
		w.state = deriveFail
	}
}

// constOperand resolves an operand to a compile-time constant using the
// current value table, recording the dependency.
func (w *walker) constOperand(r ir.Reg) (int64, deriveStatus) {
	v := w.e.val[r]
	if v.IsTop() {
		w.deps = append(w.deps, r)
		return 0, deriveNotReady
	}
	if k, ok := v.AsConst(); ok {
		w.deps = append(w.deps, r)
		return k, deriveOK
	}
	return 0, deriveFail
}

// assertEffectiveBounds converts a π-instruction on the chain into an
// effective bound on the φ value: the asserted limit shifted by the
// increments applied after the test (inc). hasUp/hasLo report which of
// the value results are meaningful (returned by value so the hot walk
// never heap-allocates a Bound).
func (e *engine) assertEffectiveBounds(def *ir.Instr, inc int64) (upper, lower vrange.Bound, hasUp, hasLo bool, st deriveStatus) {
	var bound vrange.Bound
	if def.B == ir.None {
		bound = vrange.Num(def.Const)
	} else {
		v := e.val[def.B]
		switch {
		case v.IsTop():
			return vrange.Bound{}, vrange.Bound{}, false, false, deriveNotReady
		case v.Kind() == vrange.Set && !v.IsInfeasible():
			// A loop-variant bound (its root is itself a φ, e.g. the
			// triangular `j < i`) keeps its symbolic name: the per-entry
			// correlation between the two induction variables would be
			// lost by flattening to the hull of all outer iterations.
			if e.cfg.Range.Symbolic {
				if root := e.rootOf(def.B); root != ir.None {
					if d := e.f.Defs[root]; d != nil && d.Op == ir.OpPhi {
						bound = vrange.Sym(root, 0)
						break
					}
				}
			}
			// Loop-invariant bound: use the hull side matching the
			// relation direction.
			lo, hi, ok := hullOf(v)
			if !ok {
				if !e.cfg.Range.Symbolic {
					return vrange.Bound{}, vrange.Bound{}, false, false, deriveFail
				}
				bound = vrange.Sym(e.rootOf(def.B), 0)
				break
			}
			switch def.BinOp {
			case ir.BinLt, ir.BinLe, ir.BinEq:
				bound = hi
			default:
				bound = lo
			}
		default: // ⊥
			if !e.cfg.Range.Symbolic {
				return vrange.Bound{}, vrange.Bound{}, false, false, deriveFail
			}
			bound = vrange.Sym(e.rootOf(def.B), 0)
		}
	}

	shift := func(b vrange.Bound, d int64) (vrange.Bound, bool) {
		nb := vrange.Bound{Var: b.Var, Const: b.Const + d}
		// Overflow of the constant part is a derivation failure, not a
		// soundness issue (the fallback is brute force).
		if (d > 0 && nb.Const < b.Const) || (d < 0 && nb.Const > b.Const) {
			return b, false
		}
		return nb, true
	}

	switch def.BinOp {
	case ir.BinLt:
		if b, ok := shift(bound, inc-1); ok {
			return b, vrange.Bound{}, true, false, deriveOK
		}
	case ir.BinLe, ir.BinEq:
		if b, ok := shift(bound, inc); ok {
			if def.BinOp == ir.BinEq {
				return b, b, true, true, deriveOK
			}
			return b, vrange.Bound{}, true, false, deriveOK
		}
	case ir.BinGt:
		if b, ok := shift(bound, inc+1); ok {
			return vrange.Bound{}, b, false, true, deriveOK
		}
	case ir.BinGe:
		if b, ok := shift(bound, inc); ok {
			return vrange.Bound{}, b, false, true, deriveOK
		}
	}
	return vrange.Bound{}, vrange.Bound{}, false, false, deriveFail
}

func hullOf(v vrange.Value) (lo, hi vrange.Bound, ok bool) {
	if v.Kind() != vrange.Set || len(v.Ranges) == 0 {
		return vrange.Bound{}, vrange.Bound{}, false
	}
	lo, hi = v.Ranges[0].Lo, v.Ranges[0].Hi
	for _, r := range v.Ranges[1:] {
		if d, okd := r.Lo.Diff(lo); okd && d < 0 {
			lo = r.Lo
		} else if !okd {
			return vrange.Bound{}, vrange.Bound{}, false
		}
		if d, okd := r.Hi.Diff(hi); okd && d > 0 {
			hi = r.Hi
		} else if !okd {
			return vrange.Bound{}, vrange.Bound{}, false
		}
	}
	return lo, hi, true
}

// combinePaths folds the per-path increments and bounds with the initial
// value into the derived range. It also classifies the derivation: a φ
// whose every path carries its own exit constraint and a non-zero
// increment is a *strict* induction variable, usable as the trip-count
// anchor for coupled accumulators; coupled derivations themselves are not
// (two accumulators must never anchor each other — the paths would confirm
// an arbitrary fixpoint).
func (e *engine) combinePaths(phi *ir.Instr, initVal vrange.Value, initRegs []ir.Reg, paths []pathResult) (vrange.Value, deriveStatus) {
	// Initial bounds.
	var initLo, initHi vrange.Bound
	var initStride int64
	switch {
	case initVal.Kind() == vrange.Set && !initVal.IsInfeasible():
		lo, hi, ok := hullOf(initVal)
		if !ok {
			return vrange.Value{}, deriveFail
		}
		initLo, initHi = lo, hi
		initStride = 0
		for _, r := range initVal.Ranges {
			initStride = gcdI(initStride, r.Stride)
			if d, okd := r.Lo.Diff(initLo); okd {
				initStride = gcdI(initStride, d)
			}
		}
	case initVal.IsBottom() && e.cfg.Range.Symbolic && len(initRegs) == 1:
		// Unknown start: anchor the range symbolically at the entry
		// operand (e.g. `for (i = start; i < n; i++)`).
		root := e.rootOf(initRegs[0])
		initLo = vrange.Sym(root, 0)
		initHi = initLo
		initStride = 0
	default:
		return vrange.Value{}, deriveFail
	}

	pos, neg := false, false
	var stride int64
	for _, p := range paths {
		if p.inc > 0 {
			pos = true
		} else if p.inc < 0 {
			neg = true
		}
		stride = gcdI(stride, p.inc)
	}
	if pos && neg {
		return vrange.Value{}, deriveFail
	}
	if !pos && !neg {
		// The variable never changes around the loop: its value is init.
		e.derivedStrict[phi.Idx] = false
		return initVal, deriveOK
	}
	stride = gcdI(stride, initStride)
	if stride < 0 {
		stride = -stride
	}
	if stride == 0 {
		stride = 1
	}

	strict := true
	for _, p := range paths {
		if p.inc == 0 {
			strict = false
			break
		}
	}

	var lo, hi vrange.Bound
	if pos {
		lo = initLo
		allBounded := true
		for _, p := range paths {
			if len(p.uppers) == 0 {
				allBounded = false
				break
			}
		}
		if !allBounded {
			// Trip-count-coupled extension (the paper: "adding more
			// templates and more powerful derivation processing reduces
			// the need for brute force"): an accumulator without its own
			// exit test is bounded by the trip count of a sibling strict
			// induction variable in the same header.
			strict = false
			b, st := e.coupledBound(phi, initHi, paths, true)
			if st != deriveOK {
				return vrange.Value{}, st
			}
			hi = b
		} else {
			// Each path must bound the growth; the loosest path wins.
			first := true
			for _, p := range paths {
				pb, ok := tightest(p.uppers, true)
				if !ok {
					return vrange.Value{}, deriveFail
				}
				if first {
					hi, first = pb, false
					continue
				}
				if d, okd := pb.Diff(hi); okd {
					if d > 0 {
						hi = pb
					}
				} else {
					return vrange.Value{}, deriveFail
				}
			}
			// The initial value may already exceed the loop bound.
			if d, ok := initHi.Diff(hi); ok && d > 0 {
				hi = initHi
			}
		}
	} else {
		hi = initHi
		allBounded := true
		for _, p := range paths {
			if len(p.lowers) == 0 {
				allBounded = false
				break
			}
		}
		if !allBounded {
			strict = false
			b, st := e.coupledBound(phi, initLo, paths, false)
			if st != deriveOK {
				return vrange.Value{}, st
			}
			lo = b
		} else {
			first := true
			for _, p := range paths {
				pb, ok := tightest(p.lowers, false)
				if !ok {
					return vrange.Value{}, deriveFail
				}
				if first {
					lo, first = pb, false
					continue
				}
				if d, okd := pb.Diff(lo); okd {
					if d < 0 {
						lo = pb
					}
				} else {
					return vrange.Value{}, deriveFail
				}
			}
			if d, ok := initLo.Diff(lo); ok && d < 0 {
				lo = initLo
			}
		}
	}

	e.derivedStrict[phi.Idx] = strict
	// Normalise: empty ranges mean the loop body re-entry is impossible;
	// the φ value is then just the initial value.
	if d, ok := hi.Diff(lo); ok {
		if d < 0 {
			return initVal, deriveOK
		}
		// Align the far end to the stride grid anchored at the initial
		// value's side: an up-counting variable is anchored at lo, a
		// down-counting one at hi (its values are init, init-s, ...).
		excess := d % stride
		if excess != 0 {
			if pos {
				hi = vrange.Bound{Var: hi.Var, Const: hi.Const - excess}
			} else {
				lo = vrange.Bound{Var: lo.Var, Const: lo.Const + excess}
			}
		}
		if dd, _ := hi.Diff(lo); dd == 0 {
			stride = 0
		}
	}
	r := vrange.Range{Prob: 1, Lo: lo, Hi: hi, Stride: stride}
	return vrange.FromRanges(r), deriveOK
}

// tightest picks the strongest bound of a set: the minimum for uppers, the
// maximum for lowers. Incomparable bounds prefer the numeric one — the
// loop's own exit test is numeric or anchored on a stable value, whereas a
// symbolic bound from an incidental cross-variable assertion (e.g. `i <= j`
// on an inner loop's exit) can reference a sibling induction variable and
// close a circular symbolic definition.
func tightest(bs []vrange.Bound, upper bool) (vrange.Bound, bool) {
	if len(bs) == 0 {
		return vrange.Bound{}, false
	}
	best := bs[0]
	for _, b := range bs[1:] {
		d, ok := b.Diff(best)
		if !ok {
			if b.IsNum() && !best.IsNum() {
				best = b
			}
			continue // otherwise keep the earlier one
		}
		if (upper && d < 0) || (!upper && d > 0) {
			best = b
		}
	}
	return best, true
}

func gcdI(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// coupledBound derives the far bound of an accumulator φ without its own
// exit test: the loop's trip count is read off a sibling derived φ (the
// loop-control variable) in the same header, and the accumulator moves by
// at most its largest per-trip increment each trip. The value of the
// sibling is recorded as a derivation dependency so a later lowering
// re-derives this φ; until a sibling is derived the result is "not ready"
// (brute-force propagation continues meanwhile).
func (e *engine) coupledBound(phi *ir.Instr, initFar vrange.Bound, paths []pathResult, upper bool) (vrange.Bound, deriveStatus) {
	trips, dep, ok := e.siblingTripCount(phi)
	if !ok {
		for _, in := range phi.Block.Phis() {
			if in != phi && in.Op == ir.OpPhi {
				e.recordDeriveDeps(phi, []ir.Reg{in.Dst})
			}
		}
		return vrange.Bound{}, deriveNotReady
	}
	e.recordDeriveDeps(phi, []ir.Reg{dep})
	var extreme int64
	for _, p := range paths {
		if upper && p.inc > extreme {
			extreme = p.inc
		}
		if !upper && p.inc < extreme {
			extreme = p.inc
		}
	}
	total := trips * extreme
	if extreme != 0 && total/extreme != trips {
		return vrange.Bound{}, deriveFail // overflow
	}
	b, okAdd := initFar.AddConst(total)
	if !okAdd {
		return vrange.Bound{}, deriveFail
	}
	return b, deriveOK
}

// siblingTripCount finds a derived sibling φ with an exact numeric range
// and returns its implied body trip count (the φ range includes the exit
// value, so trips = count-1).
func (e *engine) siblingTripCount(phi *ir.Instr) (int64, ir.Reg, bool) {
	for _, in := range phi.Block.Phis() {
		if in == phi || in.Op != ir.OpPhi || !e.derived[in.Idx] || !e.derivedStrict[in.Idx] {
			continue
		}
		v := e.val[in.Dst]
		if v.Kind() != vrange.Set || len(v.Ranges) != 1 {
			continue
		}
		n, ok := v.Ranges[0].Count()
		if !ok || n <= 0 || n > 1<<32 {
			continue
		}
		return n - 1, in.Dst, true
	}
	return 0, ir.None, false
}
