package vrp

import (
	"fmt"

	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// Failure semantics of the analysis pipeline (see DESIGN.md §3.5):
//
//   - A function whose engine panics, or exceeds Config.MaxEngineSteps, is
//     *degraded* instead of killing the analysis: every register becomes ⊥
//     and every branch falls back to the heuristic predictor — exactly the
//     paper's §3.5 treatment of unpredictable values, applied to the whole
//     function. The function is then quarantined for the remaining passes
//     (its degraded ⊥ contribution is already a fixpoint).
//   - A run that exhausts Config.MaxPasses before the interprocedural
//     tables stop changing is *not converged*: Wegman–Zadeck optimism is
//     only sound at a fixed point, so every surviving ⊤ value is demoted
//     to ⊥ before the result is reported (vrange.DemoteTop) and
//     Stats.Converged is false.
//   - Cancellation via context aborts between functions (and, inside one
//     engine, every few hundred worklist steps) and returns a typed
//     *AnalysisError carrying the partial stats and diagnostics.
//
// Every such event is recorded as a Diagnostic on the Result, so callers
// can tell a clean fixpoint from a patched-up one.

// DiagKind classifies a Diagnostic.
type DiagKind int

// Diagnostic kinds.
const (
	// DiagNonConvergence: the outer fixpoint exhausted MaxPasses; the
	// named function still held optimistic ⊤ values, which were demoted
	// to ⊥ before reporting.
	DiagNonConvergence DiagKind = iota
	// DiagPanic: the named function's engine panicked; its result was
	// degraded to ⊥/heuristic and the function quarantined.
	DiagPanic
	// DiagStepBudget: the named function's engine exceeded
	// Config.MaxEngineSteps; same degradation as DiagPanic.
	DiagStepBudget
	// DiagCancelled: the analysis was cancelled via context before
	// reaching a fixpoint.
	DiagCancelled
)

func (k DiagKind) String() string {
	switch k {
	case DiagNonConvergence:
		return "non-convergence"
	case DiagPanic:
		return "panic"
	case DiagStepBudget:
		return "step-budget"
	case DiagCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("diag(%d)", int(k))
}

// Diagnostic is one structured analysis event. Diagnostics are
// deterministic: the same program and configuration produce the same
// sequence for every worker count.
type Diagnostic struct {
	Kind DiagKind
	Func string // function involved; "" for whole-analysis events
	SCC  int    // call-graph SCC id of Func; -1 when not applicable
	Pass int    // 0-based fixpoint pass during which the event occurred
	Msg  string

	// PanicValue is the recovered value for DiagPanic, nil otherwise.
	PanicValue any
}

func (d Diagnostic) String() string {
	s := d.Kind.String()
	if d.Func != "" {
		s += " func=" + d.Func
	}
	if d.SCC >= 0 {
		s += fmt.Sprintf(" scc=%d", d.SCC)
	}
	s += fmt.Sprintf(" pass=%d", d.Pass)
	if d.Msg != "" {
		s += ": " + d.Msg
	}
	return s
}

// AnalysisError is returned when an analysis is aborted (today: context
// cancellation) rather than run to completion. It carries the partial
// stats and any diagnostics recorded before the abort, and unwraps to the
// underlying cause (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) works.
type AnalysisError struct {
	Err         error
	Stats       Stats
	Diagnostics []Diagnostic
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("vrp: analysis aborted after %d pass(es): %v", e.Stats.Passes, e.Err)
}

func (e *AnalysisError) Unwrap() error { return e.Err }

// degradedResult builds the paper's own fallback for a function the
// engine could not analyze: every register is ⊥ (unpredictable, §3.5) and
// every conditional branch gets the heuristic probability. Edge
// frequencies are solved from those heuristic probabilities so downstream
// consumers (frequency applications, jump-function weights) stay
// consistent. The second return value is the per-block frequency vector
// the solve produced.
func degradedResult(f *ir.Func, cfg Config) (*FuncResult, []float64) {
	vals := make([]vrange.Value, f.NumRegs)
	for i := range vals {
		vals[i] = vrange.BottomValue()
	}
	prob := make([]float64, len(f.Blocks))
	src := make([]PredictionSource, len(f.Blocks))
	for _, t := range f.Branches {
		id := t.Block.ID
		prob[id], src[id] = 0.5, ByHeuristic
		if cfg.Fallback != nil {
			prob[id] = cfg.Fallback(f, t)
		}
	}
	sol := solveFreqs(f, nil, func(br *ir.Instr) (float64, bool) {
		return prob[br.Block.ID], true
	})
	return &FuncResult{
		Fn:       f,
		val:      vals,
		EdgeFreq: sol.Edge,
		Prob:     prob,
		Source:   src,
		Derived:  make([]bool, f.NumInstrs()),
		Degraded: true,
	}, sol.Block
}

// solveFreqs solves f's frequencies from the branch probabilities prob
// outside the engine (degraded functions, re-derived stale predictions),
// clamping edge frequencies to maxFreq as the engine does. sv is f's
// factored solver when the caller holds one (an engine scratch's; the
// result then aliases its buffers until its next solve), nil for a fresh
// factorization; both give the same bits.
func solveFreqs(f *ir.Func, sv *freq.Solver, prob freq.BranchProbFunc) *freq.Frequencies {
	if sv == nil {
		tree := dom.New(f)
		sv = freq.NewSolver(f, tree, dom.FindLoops(f, tree), dom.BackEdges(f, tree))
	}
	sol := sv.Compute(prob)
	for i, v := range sol.Edge {
		if v > maxFreq {
			sol.Edge[i] = maxFreq
		}
	}
	return sol
}
