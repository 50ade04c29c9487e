package apps

import (
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// VRP as an optimizer (§6): "If a variable's final value range is a single
// constant such as 1[7:7:0], then the variable's value is constant for all
// possible executions of the program and can therefore be evaluated at
// compile time. Similarly, a variable x whose value range is the single
// symbolic range of another variable ... is simply a copy ... Just as
// constant and copy propagation identify unreachable code, so does value
// range propagation — branches to unreachable code have a probability of
// 0."
//
// Optimize applies exactly those three rewrites to the analyzed program,
// followed by dead-code elimination:
//
//  1. constant materialisation: any instruction whose result range is a
//     single numeric constant becomes OpConst;
//  2. copy forwarding: uses of a value whose range is exactly {1[y:y:0]}
//     are rewritten to use y directly;
//  3. branch folding: conditional branches with probability exactly 0 or 1
//     become unconditional jumps (the dead edge is unlinked and target φs
//     drop the corresponding operand);
//  4. DCE: side-effect-free instructions with no remaining uses are
//     deleted.
//
// The transformation preserves SSA form and program behaviour; the
// differential tests execute original and optimized programs side by side.

// OptimizeReport counts what the rewrite did.
type OptimizeReport struct {
	ConstantsMaterialized int
	CopiesForwarded       int
	BranchesFolded        int
	InstructionsRemoved   int
}

// Optimize rewrites the program in place using the analysis results.
// The analysis must come from this exact program.
func Optimize(res *corevrp.Result) *OptimizeReport {
	rep := &OptimizeReport{}
	for _, f := range res.Prog.Funcs {
		fr := res.Funcs[f]
		if fr == nil {
			continue
		}
		optimizeFunc(f, fr, rep)
	}
	return rep
}

func optimizeFunc(f *ir.Func, fr *corevrp.FuncResult, rep *OptimizeReport) {
	// 1. Constant materialisation.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !in.Defines() || in.Op == ir.OpConst || in.Op == ir.OpPhi {
				continue
			}
			// Calls and loads keep their side effects... in Mini, calls
			// may print or consume input, so only pure ops fold.
			switch in.Op {
			case ir.OpCall, ir.OpInput, ir.OpLoad, ir.OpAlloc:
				continue
			}
			if int(in.Dst) >= f.NumRegs {
				continue
			}
			if c, ok := fr.Value(in.Dst).AsConst(); ok {
				*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, Const: c, Block: in.Block, Pos: in.Pos}
				rep.ConstantsMaterialized++
			}
		}
	}

	// 2. Copy forwarding: build the substitution map from final ranges.
	subst := map[ir.Reg]ir.Reg{}
	for r := ir.Reg(1); int(r) < f.NumRegs; r++ {
		def := f.Defs[r]
		if def == nil || def.Op != ir.OpCopy {
			continue
		}
		if src, ok := fr.Value(r).AsCopyOf(); ok && src != r {
			subst[r] = resolveSubst(subst, src)
			rep.CopiesForwarded++
		}
	}
	if len(subst) > 0 {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				applySubst(in, subst)
			}
		}
	}

	// 3. Branch folding at probability 0/1.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			continue
		}
		p, src := fr.Branch(t)
		if src != corevrp.ByRange {
			continue // only range-proven certainties are safe to fold
		}
		var live, dead *ir.Edge
		switch {
		case p >= 1:
			live, dead = b.Succs[0], b.Succs[1]
		case p <= 0:
			live, dead = b.Succs[1], b.Succs[0]
		default:
			continue
		}
		unlinkEdge(f, dead)
		live.Kind = ir.EdgeJump
		*t = ir.Instr{Op: ir.OpJmp, Block: b, Pos: t.Pos}
		rep.BranchesFolded++
	}

	// 4. DCE over the def-use graph.
	if err := f.BuildDefUse(); err != nil {
		return // conservative: leave the function as is
	}
	rep.InstructionsRemoved += deadCodeEliminate(f)
}

// resolveSubst follows substitution chains.
func resolveSubst(subst map[ir.Reg]ir.Reg, r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		n, ok := subst[r]
		if !ok {
			return r
		}
		r = n
	}
	return r
}

// applySubst rewrites an instruction's operands.
func applySubst(in *ir.Instr, subst map[ir.Reg]ir.Reg) {
	get := func(r ir.Reg) ir.Reg {
		if n, ok := subst[r]; ok {
			return resolveSubst(subst, n)
		}
		return r
	}
	in.A = get(in.A)
	if in.B != ir.None {
		in.B = get(in.B)
	}
	if in.Arr != ir.None {
		in.Arr = get(in.Arr)
	}
	for i, a := range in.Args {
		in.Args[i] = get(a)
	}
	if in.Op == ir.OpAssert {
		in.Parent = get(in.Parent)
	}
}

// unlinkEdge removes a CFG edge, dropping the matching φ operand in the
// target (the target may become unreachable; it is simply never entered).
func unlinkEdge(f *ir.Func, e *ir.Edge) {
	for i, se := range e.From.Succs {
		if se == e {
			e.From.Succs = append(e.From.Succs[:i], e.From.Succs[i+1:]...)
			break
		}
	}
	idx := e.To.PredIndex(e)
	if idx >= 0 {
		e.To.Preds = append(e.To.Preds[:idx], e.To.Preds[idx+1:]...)
		for _, in := range e.To.Phis() {
			if in.Op == ir.OpPhi && idx < len(in.Args) {
				in.Args = append(in.Args[:idx], in.Args[idx+1:]...)
			}
		}
	}
}

// deadCodeEliminate removes pure instructions with no uses, iterating to a
// fixed point. Returns the number of instructions removed.
func deadCodeEliminate(f *ir.Func) int {
	removed := 0
	for {
		if err := f.BuildDefUse(); err != nil {
			return removed
		}
		changed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if isDeadPure(f, in) {
					removed++
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
		if !changed {
			return removed
		}
	}
}

// isDeadPure reports whether the instruction can be deleted: it defines a
// register nobody reads and has no side effects.
func isDeadPure(f *ir.Func, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConst, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpCopy, ir.OpPhi, ir.OpAssert, ir.OpParam:
		return len(f.Uses[in.Dst]) == 0
	}
	return false
}
