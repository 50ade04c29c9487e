package freq

import (
	"sort"

	"vrp/internal/dom"
	"vrp/internal/ir"
)

// Program-level frequency propagation (§6: "what we want to know is the
// execution frequencies of functions and basic blocks ... obtained by
// propagating frequencies around the control flow graph until a fixed
// point is reached"). Per-function solutions give each call site's
// expected executions per invocation of its caller; invocation counts then
// propagate down the call graph from main (expected 1 execution).
// Recursive cycles are damped by iterating to a bounded fixed point.

// ProgramFrequencies holds whole-program expected execution counts.
type ProgramFrequencies struct {
	// Invocations is the expected number of calls of each function per
	// program run (main = 1).
	Invocations map[*ir.Func]float64
	// Local holds each function's per-invocation block/edge frequencies.
	Local map[*ir.Func]*Frequencies
	// Block is the absolute expected executions of each block:
	// Invocations[f] × Local[f].Block[id].
	Block map[*ir.Func][]float64
}

// maxCallPasses bounds the call-graph fixed point for recursive programs.
const maxCallPasses = 16

// ComputeProgram solves frequencies for the whole program given a
// per-branch probability source.
func ComputeProgram(p *ir.Program, prob func(f *ir.Func, br *ir.Instr) (float64, bool)) *ProgramFrequencies {
	pf := &ProgramFrequencies{
		Invocations: map[*ir.Func]float64{},
		Local:       map[*ir.Func]*Frequencies{},
		Block:       map[*ir.Func][]float64{},
	}
	for _, f := range p.Funcs {
		tr := dom.New(f)
		loops := dom.FindLoops(f, tr)
		fn := f
		pf.Local[f] = Compute(f, tr, loops, func(br *ir.Instr) (float64, bool) {
			return prob(fn, br)
		})
	}

	// Call-site weights: expected calls of callee per caller invocation.
	type callEdge struct {
		callee *ir.Func
		w      float64
	}
	outs := map[*ir.Func][]callEdge{}
	for _, f := range p.Funcs {
		local := pf.Local[f]
		for _, in := range f.Calls {
			bw := local.Block[in.Block.ID]
			if in.Block == f.Entry {
				bw = 1
			}
			if bw <= 0 {
				continue
			}
			if callee := p.ByName[in.Callee]; callee != nil {
				outs[f] = append(outs[f], callEdge{callee, bw})
			}
		}
	}

	// Propagate invocation counts from main; iterate for recursion.
	main := p.Main()
	if main == nil {
		return pf
	}
	inv := map[*ir.Func]float64{main: 1}
	for pass := 0; pass < maxCallPasses; pass++ {
		next := map[*ir.Func]float64{main: 1}
		for f, n := range inv {
			for _, ce := range outs[f] {
				next[ce.callee] += n * ce.w
			}
		}
		same := len(next) == len(inv)
		if same {
			for f, n := range next {
				if d := n - inv[f]; d > 1e-6*(1+n) || d < -1e-6*(1+n) {
					same = false
					break
				}
			}
		}
		inv = next
		if same {
			break
		}
	}
	pf.Invocations = inv

	for _, f := range p.Funcs {
		local := pf.Local[f]
		abs := make([]float64, len(f.Blocks))
		n := inv[f]
		for i, v := range local.Block {
			abs[i] = n * v
		}
		abs[f.Entry.ID] = n
		pf.Block[f] = abs
	}
	return pf
}

// HotFunctions returns functions sorted by decreasing invocation count —
// the processing order coagulation-style optimizers want (§6).
func (pf *ProgramFrequencies) HotFunctions() []*ir.Func {
	var fns []*ir.Func
	for f := range pf.Invocations {
		fns = append(fns, f)
	}
	sort.Slice(fns, func(i, j int) bool {
		a, b := pf.Invocations[fns[i]], pf.Invocations[fns[j]]
		if a != b {
			return a > b
		}
		return fns[i].Name < fns[j].Name
	})
	return fns
}

// InlineCandidate scores one call site for the §6 inlining application:
// expected dynamic call count × a size discount.
type InlineCandidate struct {
	Caller *ir.Func
	Callee *ir.Func
	Call   *ir.Instr
	// Calls is the expected dynamic executions of this call site.
	Calls float64
	// Score trades call frequency against callee size: hot calls of small
	// callees first.
	Score float64
}

// InlineCandidates ranks every static call site by profitability.
func (pf *ProgramFrequencies) InlineCandidates(p *ir.Program) []InlineCandidate {
	var out []InlineCandidate
	for _, f := range p.Funcs {
		local := pf.Local[f]
		inv := pf.Invocations[f]
		if local == nil {
			continue
		}
		for _, in := range f.Calls {
			bw := local.Block[in.Block.ID]
			if in.Block == f.Entry {
				bw = 1
			}
			callee := p.ByName[in.Callee]
			if callee == nil || callee == f {
				continue
			}
			calls := inv * bw
			size := float64(callee.NumInstrs())
			if size <= 0 {
				size = 1
			}
			out = append(out, InlineCandidate{
				Caller: f,
				Callee: callee,
				Call:   in,
				Calls:  calls,
				Score:  calls / size,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Caller.Name < out[j].Caller.Name
	})
	return out
}
