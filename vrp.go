// Package vrp is a from-scratch reproduction of "Accurate Static Branch
// Prediction by Value Range Propagation" (Jason R. C. Patterson, PLDI
// 1995). It compiles programs in the Mini language to SSA form, runs value
// range propagation over them, and reports a probability for every
// conditional branch.
//
// The public API is a thin facade over the internal packages:
//
//	prog, err := vrp.Compile("demo.mini", src)
//	analysis, err := prog.Analyze()
//	for _, p := range analysis.Predictions() { ... }
//
// Programs can also be executed (with edge profiling) for ground truth or
// profile-based prediction:
//
//	profile, err := prog.Run([]int64{...inputs...})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package vrp

import (
	"context"
	"fmt"
	"strings"

	"vrp/internal/freq"
	"vrp/internal/heuristics"
	"vrp/internal/interp"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/source"
	"vrp/internal/ssaform"
	"vrp/internal/telemetry"
	corevrp "vrp/internal/vrp"
)

// Program is a compiled Mini program in SSA form, ready for analysis or
// execution.
type Program struct {
	IR *ir.Program
}

// CompileOptions controls compilation.
type CompileOptions struct {
	// NoAssertions disables π-insertion (ablation; see DESIGN.md §5).
	NoAssertions bool

	// Trace, when non-nil, receives "parse" (parsing + semantic checks)
	// and "ssa" (IR lowering + SSA conversion) phase spans under
	// TraceParent, so request-scoped traces cover compilation as well as
	// analysis. nil disables at zero cost.
	Trace *telemetry.Trace
	// TraceParent parents the compilation spans (telemetry.NoSpan roots
	// them). Ignored when Trace is nil.
	TraceParent telemetry.SpanID
}

// Compile parses, checks, lowers and SSA-converts src.
func Compile(name, src string) (*Program, error) {
	return CompileWith(name, src, CompileOptions{})
}

// CompileWith is Compile with explicit options.
func CompileWith(name, src string, opts CompileOptions) (*Program, error) {
	parseSpan := opts.Trace.Start(opts.TraceParent, "phase", "parse")
	astProg, err := parser.Parse(name, src)
	if err != nil {
		opts.Trace.End(parseSpan)
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := sem.Check(astProg); err != nil {
		opts.Trace.End(parseSpan)
		return nil, fmt.Errorf("check: %w", err)
	}
	opts.Trace.End(parseSpan)
	ssaSpan := opts.Trace.Start(opts.TraceParent, "phase", "ssa")
	irProg, err := irgen.Build(astProg)
	if err != nil {
		opts.Trace.End(ssaSpan)
		return nil, err
	}
	if err := ssaform.BuildWith(irProg, ssaform.Options{NoAssertions: opts.NoAssertions}); err != nil {
		opts.Trace.End(ssaSpan)
		return nil, err
	}
	opts.Trace.End(ssaSpan)
	return &Program{IR: irProg}, nil
}

// Run executes the program on an input stream, collecting an edge profile.
func (p *Program) Run(input []int64) (*interp.Profile, error) {
	return interp.Run(p.IR, input, interp.Options{})
}

// RunWith executes with explicit resource limits.
func (p *Program) RunWith(input []int64, opts interp.Options) (*interp.Profile, error) {
	return interp.Run(p.IR, input, opts)
}

// EngineConfig aliases the engine configuration so callers can write
// custom Options without importing the internal package.
type EngineConfig = corevrp.Config

// Diagnostic is one structured analysis event (non-convergence demotion,
// engine panic, step-budget degradation, cancellation). See
// Analysis.Diagnostics.
type Diagnostic = corevrp.Diagnostic

// Diagnostic kinds, re-exported for switch statements on Diagnostic.Kind.
const (
	DiagNonConvergence = corevrp.DiagNonConvergence
	DiagPanic          = corevrp.DiagPanic
	DiagStepBudget     = corevrp.DiagStepBudget
	DiagCancelled      = corevrp.DiagCancelled
)

// AnalysisError is the typed error a cancelled analysis returns; it
// carries the partial stats and diagnostics and unwraps to the context
// error, so errors.Is(err, context.Canceled) works.
type AnalysisError = corevrp.AnalysisError

// Option configures an analysis.
type Option func(*EngineConfig)

// NumericOnly disables symbolic ranges, reproducing the paper's "numeric
// ranges only" curves.
func NumericOnly() Option {
	return func(c *corevrp.Config) { c.Range.Symbolic = false }
}

// WithoutDerivation disables loop-carried derivation templates (§3.6
// ablation): loops are handled by brute-force propagation.
func WithoutDerivation() Option {
	return func(c *corevrp.Config) { c.Derivation = false }
}

// WithoutInterprocedural disables jump functions (§3.7 ablation).
func WithoutInterprocedural() Option {
	return func(c *corevrp.Config) { c.Interprocedural = false }
}

// WithMaxRanges overrides the per-variable range budget (paper default 4).
func WithMaxRanges(n int) Option {
	return func(c *corevrp.Config) { c.Range.MaxRanges = n }
}

// WithAssumedMagnitude overrides the magnitude substituted for unknown
// symbolic variables when a probability needs a concrete count (paper-scale
// default 10, giving the familiar 91% loop prediction).
func WithAssumedMagnitude(t int64) Option {
	return func(c *corevrp.Config) { c.Range.AssumedVarValue = t }
}

// WithRecursionWidening enables return/argument widening on recursive
// call-graph cycles: an interprocedural slot still moving after k passes
// is pinned to a hull range clamped into ±AssumedVarValue, guaranteeing
// that deep recursions (ackermann and friends) reach a true fixpoint
// instead of exhausting MaxPasses. The default is MaxPasses-2 (the
// first passes stay exact; only stragglers are widened); pass k <= 0 to
// opt out of widening entirely.
func WithRecursionWidening(k int) Option {
	return func(c *corevrp.Config) { c.RecWidenAfter = k }
}

// WithWorkers bounds the number of per-function engines the analysis
// driver runs concurrently within one call-graph wave: 0 (the default)
// picks one per available CPU, 1 forces the fully sequential schedule.
// Results are bit-identical for every setting; only wall-clock changes.
func WithWorkers(n int) Option {
	return func(c *corevrp.Config) { c.Workers = n }
}

// FuncStore is the cross-request per-function result store interface
// (see internal/vrp/store.go): entries key on a function's body
// fingerprint × interprocedural-input fingerprint × config fingerprint,
// and every hit is confirmed against the full stored key before being
// served. vrpd implements it over a bounded LRU so editing one function
// of a large program re-analyzes only the dirty cone.
type FuncStore = corevrp.FuncStore

// WithFuncStore attaches a cross-request per-function result store to
// the analysis: functions whose (body, interprocedural inputs, config)
// key confirms against a stored entry are spliced from it instead of
// re-running the engine, bit-identical to a cold run — replayed effort
// counters included. A store must only be shared between analyses using
// an identical configuration.
func WithFuncStore(st FuncStore) Option {
	return func(c *corevrp.Config) { c.FuncStore = st }
}

// WithMaxEngineSteps bounds the worklist items one per-function engine
// run may process (0 = unlimited, the default). A function exceeding the
// budget is degraded to ⊥ ranges with heuristic branch probabilities and
// reported via a step-budget diagnostic, instead of spinning.
func WithMaxEngineSteps(n int) Option {
	return func(c *corevrp.Config) { c.MaxEngineSteps = n }
}

// WithMaxEvals overrides the per-instruction structural-change budget
// before brute-force loop propagation widens to ⊥ (default 12).
func WithMaxEvals(n int) Option {
	return func(c *corevrp.Config) { c.MaxEvals = n }
}

// WithFallback overrides the heuristic used for ⊥-controlled branches.
// The default is the Ball–Larus predictor. fb must be a pure function of
// the function and the branch: the engine asks it at most once per
// branch per analysis and may reuse answers across analyses.
func WithFallback(fb corevrp.FallbackFunc) Option {
	return func(c *corevrp.Config) { c.Fallback = fb }
}

// WithConfig replaces the whole configuration (escape hatch; later options
// still apply on top).
func WithConfig(cfg corevrp.Config) Option {
	return func(c *corevrp.Config) { *c = cfg }
}

// TelemetrySnapshot is the aggregated counters record of one analysis
// run: per-function counters, histograms and the quality digest. It
// holds no timings; those are on the WithTrace span tree. See
// Analysis.Telemetry and internal/telemetry.
type TelemetrySnapshot = telemetry.Snapshot

// TraceSpanID names one span within a Trace; see telemetry.SpanID.
type TraceSpanID = telemetry.SpanID

// RequestTrace is the request-scoped span tree: a timed tree of phases
// (parse, SSA, driver callgraph and passes, per-function engine runs)
// exportable as a Chrome trace. It is the pipeline's only timeline. See
// telemetry.Trace.
type RequestTrace = telemetry.Trace

// NoTraceSpan is the absent parent span (roots the tree).
const NoTraceSpan = telemetry.NoSpan

// WithTrace attaches a request-scoped span tree to the analysis: the
// driver records the work that takes time as spans under parent — the
// callgraph condensation, every fixpoint pass, and under each pass every
// per-function engine run (on its worker's lane). Fingerprint skips and
// store splices open no span; Stats counts them. The span tree is the
// run's only timeline. Unlike WithTelemetry the spans carry only
// wall-clock timings and labels — nothing reads them back, so tracing
// never perturbs analysis results — and a nil tr is the disabled state
// at zero hot-path cost.
func WithTrace(tr *RequestTrace, parent TraceSpanID) Option {
	return func(c *corevrp.Config) {
		c.Trace = tr
		c.TraceParent = parent
	}
}

// WithTelemetry attaches the run's counters snapshot: engine counters
// (worklist pushes and peaks, φ-merges, widenings, assertion
// applications), driver counters (runs, skips, degraded runs), range
// histograms and the quality digest. The aggregated snapshot is
// available from Analysis.Telemetry; after Snapshot.Canon it is
// bit-identical across worker counts, and a run that splices functions
// from a FuncStore reports the same snapshot as a cold run. Timings are
// not counters: use WithTrace. The counters are the ones Stats sums and
// are kept either way; disabled (the default), only the snapshot is not
// assembled.
func WithTelemetry() Option {
	return func(c *corevrp.Config) { c.Telemetry = telemetry.New() }
}

// ApplyProcedureCloning duplicates functions called in significantly
// different constant contexts (§3.7), transforming the program in place.
// Run it before Analyze and Run; both then see the specialised program.
func (p *Program) ApplyProcedureCloning() *corevrp.CloneReport {
	return corevrp.CloneProcedures(p.IR, corevrp.DefaultCloneOptions())
}

// Analysis is the result of value range propagation over a Program.
type Analysis struct {
	Result *corevrp.Result
	prog   *Program
	bl     *heuristics.BallLarus // evidence source for ExplainBranch
}

// Analyze runs value range propagation. By default the configuration is
// paper-faithful: symbolic ranges on, four ranges per variable, derivation
// and interprocedural propagation enabled, Ball–Larus fallback.
func (p *Program) Analyze(opts ...Option) (*Analysis, error) {
	return p.AnalyzeContext(context.Background(), opts...)
}

// AnalyzeContext is Analyze under an explicit cancellation context: the
// run aborts between functions (and, inside one function, every few
// hundred worklist steps) once ctx is done, returning a typed
// *AnalysisError with the partial stats.
func (p *Program) AnalyzeContext(ctx context.Context, opts ...Option) (*Analysis, error) {
	cfg := corevrp.DefaultConfig()
	bl := heuristics.NewBallLarus(p.IR)
	cfg.Fallback = bl.Prob
	cfg.Evidence = func(f *ir.Func, br *ir.Instr) []corevrp.EvidenceItem {
		evs := bl.Explain(f, br)
		items := make([]corevrp.EvidenceItem, len(evs))
		for i, ev := range evs {
			items[i] = corevrp.EvidenceItem{Name: ev.Name, Prob: ev.Prob}
		}
		return items
	}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := corevrp.AnalyzeContext(ctx, p.IR, cfg)
	if err != nil {
		return nil, err
	}
	return &Analysis{Result: res, prog: p, bl: bl}, nil
}

// Prediction is one conditional branch's predicted behaviour.
type Prediction struct {
	Func   string
	Pos    source.Pos // position of the controlling expression
	Prob   float64    // probability of the true out-edge
	Source string     // "range", "heuristic" or "default"

	Branch *ir.Instr // the underlying branch instruction
	Fn     *ir.Func
}

// Converged reports whether the interprocedural fixpoint actually reached
// a fixed point within the pass budget. When false, every surviving
// optimistic ⊤ value has been demoted to ⊥ in the reported ranges and the
// affected functions carry non-convergence diagnostics.
func (a *Analysis) Converged() bool {
	return a.Result.Stats.Converged
}

// Diagnostics returns the structured failure-path events of the run:
// non-convergence demotions, per-function panic degradations, and
// step-budget degradations, in deterministic order.
func (a *Analysis) Diagnostics() []Diagnostic {
	return a.Result.Diagnostics
}

// Predictions returns every conditional branch prediction in program
// order.
func (a *Analysis) Predictions() []Prediction {
	brs := a.Result.Branches()
	out := make([]Prediction, 0, len(brs))
	for _, br := range brs {
		out = append(out, Prediction{
			Func:   br.Fn.Name,
			Pos:    br.Fn.Pos(br.Instr),
			Prob:   br.Prob,
			Source: br.Source.String(),
			Branch: br.Instr,
			Fn:     br.Fn,
		})
	}
	return out
}

// Frequencies solves whole-program expected execution counts from the
// branch predictions (§6's frequency applications): function invocation
// counts, absolute block frequencies, hot-function ordering and inlining
// candidates.
func (a *Analysis) Frequencies() *freq.ProgramFrequencies {
	return freq.ComputeProgram(a.prog.IR, func(f *ir.Func, br *ir.Instr) (float64, bool) {
		fr := a.Result.Funcs[f]
		if fr == nil {
			return 0, false
		}
		p, _ := fr.Branch(br)
		return p, true
	})
}

// Telemetry returns the run's aggregated instrumentation snapshot, or nil
// unless the analysis ran with WithTelemetry.
func (a *Analysis) Telemetry() *TelemetrySnapshot {
	return a.Result.Telemetry
}

// QualitySnapshot is the prediction-quality digest of one analysis run:
// final-cell class and width histograms, the precision-loss ledger,
// per-predictor evidence attribution and per-function quality scores.
// Unlike the rest of the telemetry snapshot it carries no wall-clock
// state, so every field is bit-identical across worker counts. See
// DESIGN.md §3.12.
type QualitySnapshot = telemetry.Quality

// Quality returns the run's prediction-quality digest, or nil unless the
// analysis ran with WithTelemetry.
func (a *Analysis) Quality() *QualitySnapshot {
	return a.Result.Quality
}

// BranchExplanation is the full provenance of one branch prediction: the
// range-derivation chain, plus — when the prediction fell back to
// heuristics — the named Ball–Larus evidence that fired.
type BranchExplanation struct {
	*corevrp.Explanation

	// Heuristics lists the Ball–Larus heuristics that applied, in
	// Dempster–Shafer combination order. Populated when the prediction
	// source is not "range" (the default fallback was consulted); empty
	// there means no heuristic applied and the default 0.5 was used.
	Heuristics []heuristics.Evidence
}

// String renders the explanation for humans: the derivation chain, then
// the heuristic evidence when the range gave no prediction.
func (e *BranchExplanation) String() string {
	s := e.Explanation.String()
	if e.Source == corevrp.ByRange {
		return s
	}
	if len(e.Heuristics) == 0 {
		return s + "  no Ball–Larus heuristic applies: default P(true) = 0.5\n"
	}
	s += "  heuristic evidence (Ball–Larus, Dempster–Shafer combined):\n"
	for _, ev := range e.Heuristics {
		s += fmt.Sprintf("    %-11s asserts P(true) = %.2f\n", ev.Name, ev.Prob)
	}
	s += fmt.Sprintf("    combined → %.4f\n", e.Prob)
	return s
}

// ExplainBranch reconstructs why the conditional branch at the given
// source line of function fn got its probability: the chain of SSA
// definitions the controlling range was derived from, or the named
// heuristics that fired when that range was ⊥. line 0 picks the
// function's only branch, if there is exactly one.
func (a *Analysis) ExplainBranch(fn string, line int) (*BranchExplanation, error) {
	f := a.prog.IR.ByName[fn]
	if f == nil {
		return nil, fmt.Errorf("vrp: no function %q", fn)
	}
	var br *ir.Instr
	var lines []string
	for _, t := range f.Branches {
		l := f.Pos(t).Line
		lines = append(lines, fmt.Sprint(l))
		if l == line || (line == 0 && br == nil) {
			br = t
		}
	}
	if line == 0 && len(lines) > 1 {
		return nil, fmt.Errorf("vrp: %s has %d branches (lines %s); pick one", fn, len(lines), strings.Join(lines, ", "))
	}
	if br == nil {
		if len(lines) == 0 {
			return nil, fmt.Errorf("vrp: %s has no conditional branches", fn)
		}
		return nil, fmt.Errorf("vrp: no branch at %s:%d (branches at lines %s)", fn, line, strings.Join(lines, ", "))
	}
	ex, err := a.Result.ExplainBranch(f, br)
	if err != nil {
		return nil, err
	}
	be := &BranchExplanation{Explanation: ex}
	if ex.Source != corevrp.ByRange && a.bl != nil {
		be.Heuristics = a.bl.Explain(f, br)
	}
	return be, nil
}

// ValueString renders the final value range of the named source variable's
// version (e.g. "x.1") in function fn, in the paper's notation; ok is
// false if no such variable exists.
func (a *Analysis) ValueString(fn, varName string) (string, bool) {
	f := a.prog.IR.ByName[fn]
	if f == nil {
		return "", false
	}
	fr := a.Result.Funcs[f]
	if fr == nil {
		return "", false
	}
	for r, n := range f.Names {
		if n == varName && int(r) < f.NumRegs {
			return fr.Value(r).Format(func(rr ir.Reg) string {
				if nn, ok := f.Names[rr]; ok {
					return nn
				}
				return fmt.Sprintf("r%d", rr)
			}), true
		}
	}
	return "", false
}
