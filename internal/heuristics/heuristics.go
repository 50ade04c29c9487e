// Package heuristics implements the static branch prediction baselines the
// paper compares against (§5):
//
//   - the Ball–Larus program-based heuristics ("Branch Prediction for
//     Free", PLDI 1993), combined into probabilities with the
//     Dempster–Shafer evidence combination of Wu & Larus ("Static Branch
//     Frequency and Program Profile Analysis", MICRO 1994) — the paper's
//     "[BallLarus93] heuristics combined as in [WuLarus94]";
//   - the 90/50 rule: backward branches are taken 90% of the time,
//     forward branches 50%;
//   - deterministic pseudo-random predictions (the reference floor).
//
// The Ball–Larus predictor is also the fallback the VRP engine uses for
// branches whose controlling range is ⊥ (§3.5).
package heuristics

import (
	"sync"

	"vrp/internal/dom"
	"vrp/internal/ir"
)

// Wu–Larus table 1 hit rates for each Ball–Larus heuristic.
const (
	probLoopBranch = 0.88
	probLoopExit   = 0.80
	probLoopHeader = 0.75
	probCall       = 0.78
	probOpcode     = 0.84
	probReturn     = 0.72
	probStore      = 0.55
	probGuard      = 0.62
)

// funcInfo caches per-function structure needed by the heuristics, built
// on the function's first prediction.
type funcInfo struct {
	once  sync.Once
	post  *dom.PostTree
	loops *dom.LoopInfo
	back  []bool // by edge ID
}

// BallLarus predicts branches with the combined Ball–Larus heuristics.
type BallLarus struct {
	info map[*ir.Func]*funcInfo
}

// NewBallLarus allocates one empty slot per function of p. A function's
// dominators, postdominators, loops and back edges are built on demand,
// on its first Prob or Explain, and kept for later ones: a caller that
// predicts the branches of a few functions of a large program (an
// incremental analysis splicing the rest from a store) pays only for
// those. Prob and Explain are safe for concurrent use.
func NewBallLarus(p *ir.Program) *BallLarus {
	h := &BallLarus{info: make(map[*ir.Func]*funcInfo, len(p.Funcs))}
	slots := make([]funcInfo, len(p.Funcs))
	for i, f := range p.Funcs {
		h.info[f] = &slots[i]
	}
	return h
}

// structure returns fi with f's structure built, building it on the first
// call for f; concurrent first calls build it once.
func (fi *funcInfo) structure(f *ir.Func) *funcInfo {
	fi.once.Do(func() {
		t := dom.New(f)
		fi.post = dom.NewPost(f)
		fi.loops = dom.FindLoops(f, t)
		fi.back = dom.BackEdges(f, t)
	})
	return fi
}

// Evidence is one applicable heuristic's contribution to a prediction:
// the heuristic's name and the true-edge probability it asserts.
type Evidence struct {
	Name string  // "loop-branch", "loop-exit", "opcode", "call", "store", "return", "loop-header", "guard"
	Prob float64 // asserted probability of the true out-edge
}

// Names returns the canonical heuristic names, in the fixed order
// evidence is combined in — the label vocabulary for per-predictor
// attribution (quality telemetry, accuracy benches).
func Names() []string {
	return []string{"loop-branch", "loop-exit", "opcode", "call", "store", "return", "loop-header", "guard"}
}

// Prob returns the predicted probability of the branch's true out-edge,
// combining every applicable heuristic with Dempster–Shafer.
func (h *BallLarus) Prob(f *ir.Func, br *ir.Instr) float64 {
	p := 0.5
	for _, ev := range h.Explain(f, br) {
		p = dempsterShafer(p, ev.Prob)
	}
	return p
}

// Explain returns the evidence each applicable heuristic contributes to
// the branch, in the fixed application order Prob combines them in — the
// provenance record behind a heuristic prediction. Nil when no heuristic
// applies (Prob then reports 0.5).
func (h *BallLarus) Explain(f *ir.Func, br *ir.Instr) []Evidence {
	fi := h.info[f]
	if fi == nil || br.Block == nil || len(br.Block.Succs) != 2 {
		return nil
	}
	return h.evidence(f, fi.structure(f), br)
}

// dempsterShafer combines two independent probability estimates of the
// same event (Wu–Larus equation 1).
func dempsterShafer(p1, p2 float64) float64 {
	num := p1 * p2
	den := num + (1-p1)*(1-p2)
	if den == 0 {
		return 0.5
	}
	return num / den
}

// evidence returns the true-edge probability asserted by each applicable
// heuristic, tagged with the heuristic's name.
func (h *BallLarus) evidence(f *ir.Func, fi *funcInfo, br *ir.Instr) []Evidence {
	var out []Evidence
	b := br.Block
	tEdge, fEdge := b.Succs[0], b.Succs[1]
	loop := fi.loops.InnermostLoop(b.ID)

	add := func(name string, pTrue float64) {
		out = append(out, Evidence{Name: name, Prob: pTrue})
	}

	// Loop branch heuristic: the edge back to the loop head is taken.
	switch {
	case fi.back[tEdge.ID] && !fi.back[fEdge.ID]:
		add("loop-branch", probLoopBranch)
	case fi.back[fEdge.ID] && !fi.back[tEdge.ID]:
		add("loop-branch", 1-probLoopBranch)
	}

	// Loop exit heuristic: inside a loop, a comparison whose successors
	// are not the loop head rarely leaves the loop.
	if loop != nil && !fi.back[tEdge.ID] && !fi.back[fEdge.ID] {
		tExits := !loop.Contains(tEdge.To.ID)
		fExits := !loop.Contains(fEdge.To.ID)
		if tExits && !fExits {
			add("loop-exit", 1-probLoopExit)
		} else if fExits && !tExits {
			add("loop-exit", probLoopExit)
		}
	}

	// Opcode heuristic: comparisons with zero / equality against a
	// constant usually fail.
	if p, ok := h.opcodeEvidence(f, br); ok {
		add("opcode", p)
	}

	// Successor-content heuristics. Each applies only when exactly one
	// successor has the property and that successor does not postdominate
	// the branch.
	h.succEvidence(fi, b, tEdge, fEdge, &out)

	// Guard heuristic: a successor that uses the compared value (and does
	// not postdominate) is taken.
	if p, ok := h.guardEvidence(f, fi, br, tEdge, fEdge); ok {
		add("guard", p)
	}

	return out
}

// condComparison digs the comparison feeding a branch out of the copy/not
// chain, tracking polarity.
func condComparison(f *ir.Func, br *ir.Instr) (*ir.Instr, bool, bool) {
	r := br.A
	pol := true
	for i := 0; i < 64; i++ {
		d := f.Defs[r]
		if d == nil {
			return nil, pol, false
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		case ir.OpNot:
			pol = !pol
			r = d.A
		case ir.OpBin:
			if d.BinOp.IsComparison() {
				return d, pol, true
			}
			return nil, pol, false
		default:
			return nil, pol, false
		}
	}
	return nil, pol, false
}

func constRegValue(f *ir.Func, r ir.Reg) (int64, bool) {
	for i := 0; i < 64; i++ {
		d := f.Defs[r]
		if d == nil {
			return 0, false
		}
		switch d.Op {
		case ir.OpConst:
			return d.Const, true
		case ir.OpCopy:
			r = d.A
		default:
			return 0, false
		}
	}
	return 0, false
}

// opcodeEvidence: "a comparison of an integer for less than zero, less
// than or equal to zero, or equal to a constant, will fail" (Ball–Larus).
func (h *BallLarus) opcodeEvidence(f *ir.Func, br *ir.Instr) (float64, bool) {
	cmp, pol, ok := condComparison(f, br)
	if !ok {
		return 0, false
	}
	op := cmp.BinOp
	a, b := cmp.A, cmp.B
	if _, isConst := constRegValue(f, a); isConst {
		// Normalise constant to the right.
		op = op.Swap()
		a, b = b, a
	}
	kb, bConst := constRegValue(f, b)
	if !bConst {
		return 0, false
	}
	var pTaken float64
	switch {
	case (op == ir.BinLt || op == ir.BinLe) && kb == 0:
		pTaken = 1 - probOpcode // x < 0 fails
	case (op == ir.BinGt || op == ir.BinGe) && kb == 0:
		pTaken = probOpcode // mirrored form succeeds
	case op == ir.BinEq:
		pTaken = 1 - probOpcode // x == const fails
	case op == ir.BinNe:
		pTaken = probOpcode
	default:
		return 0, false
	}
	if !pol {
		pTaken = 1 - pTaken
	}
	_ = a
	return pTaken, true
}

// succEvidence applies the call, store, return and loop-header heuristics.
func (h *BallLarus) succEvidence(fi *funcInfo, b *ir.Block, tEdge, fEdge *ir.Edge, out *[]Evidence) {
	contains := func(blk *ir.Block, pred func(*ir.Instr) bool) bool {
		for _, in := range blk.Instrs {
			if pred(in) {
				return true
			}
		}
		return false
	}
	tPost := fi.post.PostDominates(tEdge.To.ID, b.ID)
	fPost := fi.post.PostDominates(fEdge.To.ID, b.ID)

	apply := func(name string, pHeur float64, tHas, fHas bool) {
		switch {
		case tHas && !fHas && !tPost:
			*out = append(*out, Evidence{Name: name, Prob: 1 - pHeur})
		case fHas && !tHas && !fPost:
			*out = append(*out, Evidence{Name: name, Prob: pHeur})
		}
	}

	isCall := func(in *ir.Instr) bool { return in.Op == ir.OpCall }
	isStore := func(in *ir.Instr) bool { return in.Op == ir.OpStore }
	isRet := func(in *ir.Instr) bool { return in.Op == ir.OpRet }

	// Call heuristic: the successor containing a call is not taken.
	apply("call", probCall, contains(tEdge.To, isCall), contains(fEdge.To, isCall))
	// Store heuristic: the successor containing a store is not taken.
	apply("store", probStore, contains(tEdge.To, isStore), contains(fEdge.To, isStore))
	// Return heuristic: the successor containing a return is not taken.
	apply("return", probReturn, contains(tEdge.To, isRet), contains(fEdge.To, isRet))

	// Loop header heuristic: a successor that is a loop header (and does
	// not postdominate) is taken.
	isHeader := func(e *ir.Edge) bool {
		l := fi.loops.InnermostLoop(e.To.ID)
		return l != nil && (l.Header == e.To || isPreheader(e.To, l))
	}
	tHead, fHead := isHeader(tEdge), isHeader(fEdge)
	switch {
	case tHead && !fHead && !tPost:
		*out = append(*out, Evidence{Name: "loop-header", Prob: probLoopHeader})
	case fHead && !tHead && !fPost:
		*out = append(*out, Evidence{Name: "loop-header", Prob: 1 - probLoopHeader})
	}
}

// isPreheader reports whether blk is the unique forward predecessor chain
// of the loop's header (a straight-line block jumping into the loop).
func isPreheader(blk *ir.Block, l *dom.Loop) bool {
	if l.Contains(blk.ID) || len(blk.Succs) != 1 {
		return false
	}
	return blk.Succs[0].To == l.Header
}

// guardEvidence: if a comparison operand is used in exactly one successor
// (that does not postdominate), that successor is taken.
func (h *BallLarus) guardEvidence(f *ir.Func, fi *funcInfo, br *ir.Instr, tEdge, fEdge *ir.Edge) (float64, bool) {
	cmp, _, ok := condComparison(f, br)
	if !ok {
		return 0, false
	}
	// Collect the compared registers and their π-descendants' parents.
	used := func(blk *ir.Block, r ir.Reg) bool {
		if r == ir.None {
			return false
		}
		var buf []ir.Reg
		for _, in := range blk.Instrs {
			if in.Op == ir.OpAssert && in.Parent == r {
				return true
			}
			buf = in.UseRegs(buf[:0])
			for _, u := range buf {
				if u == r {
					return true
				}
			}
		}
		return false
	}
	b := br.Block
	tUse := used(tEdge.To, cmp.A) || used(tEdge.To, cmp.B)
	fUse := used(fEdge.To, cmp.A) || used(fEdge.To, cmp.B)
	tPost := fi.post.PostDominates(tEdge.To.ID, b.ID)
	fPost := fi.post.PostDominates(fEdge.To.ID, b.ID)
	switch {
	case tUse && !fUse && !tPost:
		return probGuard, true
	case fUse && !tUse && !fPost:
		return 1 - probGuard, true
	}
	return 0, false
}

// ---------------------------------------------------------- other baselines

// NinetyFifty implements the 90/50 rule: a branch whose taken edge goes
// backwards is taken 90% of the time; forward branches are 50/50.
func NinetyFifty(f *ir.Func, br *ir.Instr) float64 {
	if br.Block == nil || len(br.Block.Succs) != 2 {
		return 0.5
	}
	t, fe := br.Block.Succs[0], br.Block.Succs[1]
	tBack := t.To.ID <= br.Block.ID
	fBack := fe.To.ID <= br.Block.ID
	switch {
	case tBack && !fBack:
		return 0.9
	case fBack && !tBack:
		return 0.1
	}
	return 0.5
}

// Random returns a deterministic pseudo-random probability per branch —
// the floor every real predictor must beat.
func Random(f *ir.Func, br *ir.Instr) float64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, c := range f.Name {
		mix(uint64(c))
	}
	if br.Block != nil {
		mix(uint64(br.Block.ID) + 1)
	}
	mix(uint64(br.Dst) + uint64(br.A)<<20)
	return float64(h%10000) / 10000.0
}
