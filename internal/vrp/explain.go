package vrp

import (
	"fmt"
	"strings"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// Branch provenance ("explain mode"): given an analyzed branch, reconstruct
// the chain of SSA definitions its probability was derived from — the
// controlling value, the φ/assertion/arithmetic steps feeding it, and the
// kind of evaluation each step used (derivation template, weighted merge,
// π-refinement, …). The chain is recomputed from the final value table and
// the engine's Derived marks, so it needs no extra hot-path bookkeeping and
// works whether or not telemetry was enabled.

// ExplainStep is one link in a branch's derivation chain: an SSA
// definition consulted while computing the controlling value, the final
// range it settled at, and how the engine evaluated it.
type ExplainStep struct {
	Reg   ir.Reg
	Instr *ir.Instr
	// Kind names the evaluation rule: "const", "param", "input", "load",
	// "alloc", "copy", "neg", "not", "binop", "assert" (π-refinement),
	// "call" (interprocedural return range), "φ-derived" (§3.6 template)
	// or "φ-merge" (weighted merge over executable in-edges).
	Kind  string
	Value vrange.Value
	Depth int // def-chain distance from the branch condition
}

// Explanation records why one conditional branch got its probability.
type Explanation struct {
	Fn     *ir.Func
	Branch *ir.Instr
	Prob   float64 // probability of the true out-edge
	Source PredictionSource
	Cond   vrange.Value // final value of the controlling register

	// Steps is the breadth-first def chain of the controlling register:
	// Steps[0] is its definition, deeper entries are the operands it was
	// computed from. Bounded; Truncated reports when the walk was cut.
	Steps     []ExplainStep
	Truncated bool

	// Degraded marks a function whose result is the ⊥/heuristic fallback
	// (engine panic or step budget); the chain then explains only why
	// everything is ⊥.
	Degraded bool
}

// Explain chain bounds: generous for a single branch, small enough that a
// pathological def web cannot produce megabytes of output.
const (
	explainMaxSteps = 48
	explainMaxDepth = 16
)

// ExplainBranch reconstructs the derivation chain behind one conditional
// branch of an analyzed function. br must be an OpBr of f.
func (r *Result) ExplainBranch(f *ir.Func, br *ir.Instr) (*Explanation, error) {
	fr := r.Funcs[f]
	if fr == nil {
		return nil, fmt.Errorf("vrp: function %s has no analysis result", f.Name)
	}
	if br == nil || br.Op != ir.OpBr || br.Block.ID >= len(f.Blocks) || f.Blocks[br.Block.ID] != br.Block {
		return nil, fmt.Errorf("vrp: instruction is not a conditional branch of %s", f.Name)
	}
	ex := &Explanation{Fn: f, Branch: br, Degraded: fr.Degraded}
	ex.Prob, ex.Source = fr.Branch(br)
	if int(br.A) < f.NumRegs {
		ex.Cond = fr.Value(br.A)
	}

	type item struct {
		reg   ir.Reg
		depth int
	}
	queue := []item{{br.A, 0}}
	seen := map[ir.Reg]bool{br.A: true}
	var buf []ir.Reg
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		d := f.Defs[it.reg]
		if d == nil {
			continue
		}
		if len(ex.Steps) >= explainMaxSteps {
			ex.Truncated = true
			break
		}
		step := ExplainStep{Reg: it.reg, Instr: d, Depth: it.depth, Kind: stepKind(fr, d)}
		if int(it.reg) < f.NumRegs {
			step.Value = fr.Value(it.reg)
		}
		ex.Steps = append(ex.Steps, step)
		if it.depth >= explainMaxDepth {
			ex.Truncated = true
			continue
		}
		buf = d.UseRegs(buf[:0])
		for _, u := range buf {
			if u != ir.None && !seen[u] {
				seen[u] = true
				queue = append(queue, item{u, it.depth + 1})
			}
		}
	}
	return ex, nil
}

// stepKind names the evaluation rule that produced an instruction's value.
func stepKind(fr *FuncResult, d *ir.Instr) string {
	switch d.Op {
	case ir.OpConst:
		return "const"
	case ir.OpParam:
		return "param"
	case ir.OpInput:
		return "input"
	case ir.OpLoad:
		return "load"
	case ir.OpAlloc:
		return "alloc"
	case ir.OpCopy:
		return "copy"
	case ir.OpNeg:
		return "neg"
	case ir.OpNot:
		return "not"
	case ir.OpBin:
		return "binop"
	case ir.OpAssert:
		return "assert"
	case ir.OpCall:
		return "call"
	case ir.OpPhi:
		if fr.Derived[d.Idx] {
			return "φ-derived"
		}
		return "φ-merge"
	}
	return d.Op.String()
}

// regName renders a register with its source-level SSA name when one
// exists.
func regName(f *ir.Func, r ir.Reg) string {
	if n, ok := f.Names[r]; ok {
		return n
	}
	return fmt.Sprintf("r%d", r)
}

// kindNote is the one-line human gloss printed next to each step kind.
var kindNote = map[string]string{
	"φ-derived": "loop-carried value from a §3.6 derivation template",
	"φ-merge":   "weighted merge over executable in-edges (§3.3 step 5)",
	"assert":    "π-refinement of the parent by the branch condition (§3.2)",
	"input":     "opaque input: canonical ⊥ producer (§3.5)",
	"load":      "memory load: canonical ⊥ producer (§3.5)",
	"call":      "interprocedural return range of the callee (§3.7)",
	"param":     "merged actual arguments across call sites (§3.7)",
}

// String renders the explanation for humans: the branch line, the range
// (or the reason there is none), and the indented derivation chain.
func (ex *Explanation) String() string {
	f := ex.Fn
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s  branch on %s  P(true) = %.4f  [%s]\n",
		f.Name, f.Pos(ex.Branch), regName(f, ex.Branch.A), ex.Prob, ex.Source)
	if ex.Degraded {
		b.WriteString("  (function degraded: engine panic or step budget; all ranges are ⊥)\n")
	}
	fmtVal := func(v vrange.Value) string {
		return v.Format(func(r ir.Reg) string { return regName(f, r) })
	}
	fmt.Fprintf(&b, "  condition %s ∈ %s\n", regName(f, ex.Branch.A), fmtVal(ex.Cond))
	for _, s := range ex.Steps {
		fmt.Fprintf(&b, "  %s%s ∈ %s\t%s", strings.Repeat("  ", s.Depth),
			regName(f, s.Reg), fmtVal(s.Value), s.Kind)
		if note := kindNote[s.Kind]; note != "" {
			fmt.Fprintf(&b, " — %s", note)
		}
		b.WriteByte('\n')
	}
	if ex.Truncated {
		b.WriteString("  … chain truncated\n")
	}
	return b.String()
}
