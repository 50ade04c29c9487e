package vrp

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// The failure-path suite: non-convergence demotion, context cancellation,
// panic isolation, and step-budget degradation. Every surviving result
// must be bit-deterministic across worker counts, and the whole file runs
// under -race via `make check` (the driver is parallel by default).

// mutualSrc is a mutually recursive program: even ↔ odd form one SCC, so
// the interprocedural fixpoint genuinely needs multiple passes.
const mutualSrc = `
func even(n) {
	if (n <= 0) { return 1; }
	return odd(n - 1);
}
func odd(n) {
	if (n <= 0) { return 0; }
	return even(n - 1);
}
func main() {
	print(even(input() % 8));
}`

func countTops(res *Result) int {
	tops := 0
	for _, fr := range res.Funcs {
		if fr == nil {
			continue
		}
		for _, v := range values(fr) {
			if v.IsTop() {
				tops++
			}
		}
	}
	return tops
}

// values returns every register's value as fr reports it (Value).
func values(fr *FuncResult) []vrange.Value {
	vs := make([]vrange.Value, fr.Fn.NumRegs)
	for r := range vs {
		vs[r] = fr.Value(ir.Reg(r))
	}
	return vs
}

func diagsOfKind(ds []Diagnostic, k DiagKind) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

// valsEqual compares two per-function value tables bit for bit.
func valsEqual(t *testing.T, label string, prog *ir.Program, a, b *Result) {
	t.Helper()
	for _, f := range prog.Funcs {
		fa, fb := a.Funcs[f], b.Funcs[f]
		if (fa == nil) != (fb == nil) {
			t.Fatalf("%s: %s present in one result only", label, f.Name)
		}
		if fa == nil {
			continue
		}
		va, vb := values(fa), values(fb)
		if len(va) != len(vb) {
			t.Fatalf("%s: %s value table length differs", label, f.Name)
		}
		for r := range va {
			if !va[r].BitEqual(vb[r]) {
				t.Errorf("%s: %s r%d = %v vs %v", label, f.Name, r, va[r], vb[r])
			}
		}
	}
}

func diagsEqual(t *testing.T, label string, a, b []Diagnostic) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: diagnostic count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Func != b[i].Func || a[i].SCC != b[i].SCC ||
			a[i].Pass != b[i].Pass || a[i].Msg != b[i].Msg {
			t.Errorf("%s: diagnostic %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestNonConvergenceDemotesTop: a MaxPasses=1 run on the mutually
// recursive program must say so (Converged false), contain no optimistic
// ⊤ in any reported result, and carry at least one non-convergence
// diagnostic — instead of silently reporting unconverged optimistic
// ranges, which are indistinguishable from converged ones.
func TestNonConvergenceDemotesTop(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)

	cfg := DefaultConfig()
	cfg.MaxPasses = 1
	res, err := Analyze(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Converged {
		t.Fatal("MaxPasses=1 on mutual recursion reported Converged=true")
	}
	if n := countTops(res); n != 0 {
		t.Errorf("unconverged result still reports %d ⊤ value(s); all must be demoted to ⊥", n)
	}
	nc := diagsOfKind(res.Diagnostics, DiagNonConvergence)
	if len(nc) == 0 {
		t.Fatal("no non-convergence diagnostic emitted")
	}
	for _, d := range nc {
		if d.Func == "" || d.SCC < 0 {
			t.Errorf("non-convergence diagnostic missing function/SCC: %v", d)
		}
	}

	// The converged run is the contrast: Converged true, no diagnostics.
	// (This SCC needs ~26 passes, well beyond the default budget of 8 —
	// which is exactly why the silent-truncation bug mattered.)
	fullCfg := DefaultConfig()
	fullCfg.MaxPasses = 64
	full, err := Analyze(prog, fullCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Stats.Converged {
		t.Fatal("MaxPasses=64 run on mutual recursion did not converge")
	}
	if len(full.Diagnostics) != 0 {
		t.Errorf("converged run has diagnostics: %v", full.Diagnostics)
	}
	// A converged result may keep ⊤ for genuinely unreachable code; only
	// the unconverged path demotes.
}

// TestNonConvergenceDeterministic: the demoted results and diagnostics of
// an unconverged run are bit-identical for Workers 1 and 8.
func TestNonConvergenceDeterministic(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)
	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.MaxPasses = 1
		cfg.Workers = workers
		res, err := Analyze(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	branchesEqual(t, "nonconvergence", seq.Branches(), par.Branches())
	valsEqual(t, "nonconvergence", prog, seq, par)
	diagsEqual(t, "nonconvergence", seq.Diagnostics, par.Diagnostics)
	if seq.Stats.Converged != par.Stats.Converged {
		t.Error("Converged differs across worker counts")
	}
}

// TestCancelledContext: an already-cancelled context aborts before any
// pass, returning the typed *AnalysisError that unwraps to
// context.Canceled, for every worker count.
func TestCancelledContext(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		res, err := AnalyzeContext(ctx, prog, cfg)
		if res != nil {
			t.Fatalf("workers=%d: cancelled analysis returned a result", workers)
		}
		var ae *AnalysisError
		if !errors.As(err, &ae) {
			t.Fatalf("workers=%d: error is %T, want *AnalysisError", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error does not unwrap to context.Canceled: %v", workers, err)
		}
		if ae.Stats.Passes != 0 {
			t.Errorf("workers=%d: pre-cancelled run reports %d passes", workers, ae.Stats.Passes)
		}
		if len(diagsOfKind(ae.Diagnostics, DiagCancelled)) == 0 {
			t.Errorf("workers=%d: no cancellation diagnostic", workers)
		}
	}
}

// TestMidWaveCancellation: cancelling while the first wave's engine runs
// (via the test hook) stops the fixpoint mid-flight; the driver returns
// the typed error with the partial stats of the work already done. Runs
// under -race in `make check` with Workers 8, exercising the concurrent
// cancellation path.
func TestMidWaveCancellation(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.testHookEngineRun = func(f *ir.Func) {
			if f.Name == "main" {
				cancel() // fires during wave 0, before even/odd run
			}
		}
		res, err := AnalyzeContext(ctx, prog, cfg)
		cancel()
		if res != nil {
			t.Fatalf("workers=%d: cancelled analysis returned a result", workers)
		}
		var ae *AnalysisError
		if !errors.As(err, &ae) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want *AnalysisError wrapping context.Canceled, got %v", workers, err)
		}
		// main itself completes (cancellation is observed between
		// functions); the even/odd SCC must not have run.
		if ae.Stats.FuncsAnalyzed > 1 {
			t.Errorf("workers=%d: %d functions analyzed after mid-wave cancel, want ≤1",
				workers, ae.Stats.FuncsAnalyzed)
		}
	}
}

// TestPanicIsolation: a panic inside one function's engine — on a pooled
// goroutine under Workers 8 — must not kill the process. The panicking
// function degrades to ⊥ values with heuristic-only branch probabilities;
// every function outside its dependence chain keeps exact results; and a
// diagnostic names the function, its SCC, and the panic value.
func TestPanicIsolation(t *testing.T) {
	// main's branches do not consume bad's return value, so every
	// function except bad itself must match the clean run exactly.
	const src = `
func bad(x) {
	var s = 0;
	for (var i = 0; i < x; i++) { s += i; }
	return s;
}
func good(x) {
	if (x < 10) { return 1; }
	return 2;
}
func main() {
	print(bad(3));
	var b = good(input());
	if (b == 1) { print(1); } else { print(2); }
}`
	prog := compileSrc(t, "panicprog", src)

	clean, err := Analyze(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.testHookEngineRun = func(f *ir.Func) {
			if f.Name == "bad" {
				panic("injected engine failure")
			}
		}
		res, err := Analyze(prog, cfg)
		if err != nil {
			t.Fatalf("workers=%d: analysis died instead of isolating the panic: %v", workers, err)
		}
		return res
	}
	res := run(8)

	bad := prog.ByName["bad"]
	fr := res.Funcs[bad]
	if fr == nil || !fr.Degraded {
		t.Fatal("panicking function has no degraded result")
	}
	for r, v := range values(fr) {
		if !v.IsBottom() {
			t.Errorf("bad r%d = %v, want ⊥", r, v)
		}
	}
	for _, b := range bad.Blocks {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.OpBr {
			if _, src := fr.Branch(tm); src != ByHeuristic {
				t.Errorf("bad branch %v source = %v, want heuristic", tm, src)
			}
		}
	}
	if res.Stats.FuncsDegraded != 1 {
		t.Errorf("FuncsDegraded = %d, want 1", res.Stats.FuncsDegraded)
	}

	// Diagnostic names function, SCC and panic value.
	pd := diagsOfKind(res.Diagnostics, DiagPanic)
	if len(pd) != 1 {
		t.Fatalf("panic diagnostics = %d, want 1 (quarantine must prevent repeats)", len(pd))
	}
	if pd[0].Func != "bad" || pd[0].SCC < 0 {
		t.Errorf("panic diagnostic missing function/SCC: %v", pd[0])
	}
	if pv, ok := pd[0].PanicValue.(string); !ok || pv != "injected engine failure" {
		t.Errorf("panic value = %v", pd[0].PanicValue)
	}
	if !strings.Contains(pd[0].Msg, "injected engine failure") {
		t.Errorf("panic diagnostic message does not name the panic: %q", pd[0].Msg)
	}

	// Exactness everywhere else: good and main keep the clean run's
	// branch probabilities bit for bit.
	for _, f := range prog.Funcs {
		if f == bad {
			continue
		}
		cf, rf := clean.Funcs[f], res.Funcs[f]
		for _, b := range f.Blocks {
			tm := b.Terminator()
			if tm == nil || tm.Op != ir.OpBr {
				continue
			}
			cp, _ := cf.Branch(tm)
			rp, _ := rf.Branch(tm)
			if math.Float64bits(cp) != math.Float64bits(rp) {
				t.Errorf("%s: branch prob %v vs clean %v", f.Name, rp, cp)
			}
		}
	}

	// And the degraded world is itself deterministic across worker counts.
	seq := run(1)
	branchesEqual(t, "panic", seq.Branches(), res.Branches())
	valsEqual(t, "panic", prog, seq, res)
	diagsEqual(t, "panic", seq.Diagnostics, res.Diagnostics)
}

// TestStepBudgetDegrades: a tiny MaxEngineSteps budget degrades every
// non-trivial function to ⊥/heuristic — with a diagnostic per function —
// instead of letting a pathological input spin the engine, and the
// degraded results are bit-identical across worker counts.
func TestStepBudgetDegrades(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)
	run := func(workers int) *Result {
		cfg := DefaultConfig()
		cfg.MaxEngineSteps = 1
		cfg.Workers = workers
		res, err := Analyze(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(8)
	sb := diagsOfKind(res.Diagnostics, DiagStepBudget)
	if len(sb) == 0 {
		t.Fatal("no step-budget diagnostics with MaxEngineSteps=1")
	}
	for _, d := range sb {
		if d.Func == "" || d.SCC < 0 {
			t.Errorf("step-budget diagnostic missing function/SCC: %v", d)
		}
	}
	if res.Stats.FuncsDegraded == 0 {
		t.Error("FuncsDegraded = 0 under a one-step budget")
	}
	for _, fr := range res.Funcs {
		if !fr.Degraded {
			continue
		}
		for r, v := range values(fr) {
			if !v.IsBottom() {
				t.Errorf("%s r%d = %v after budget degradation, want ⊥", fr.Fn.Name, r, v)
			}
		}
	}
	if countTops(res) != 0 {
		t.Error("step-budget run reports ⊤ values")
	}

	seq := run(1)
	branchesEqual(t, "stepbudget", seq.Branches(), res.Branches())
	valsEqual(t, "stepbudget", prog, seq, res)
	diagsEqual(t, "stepbudget", seq.Diagnostics, res.Diagnostics)
}

// TestGenerousBudgetIsInvisible: a budget large enough for the program
// must change nothing — same results, no diagnostics — so enabling the
// safety valve in production is free.
func TestGenerousBudgetIsInvisible(t *testing.T) {
	prog := compileSrc(t, "mutual", mutualSrc)
	base := DefaultConfig()
	base.MaxPasses = 64 // enough for this SCC to truly converge
	clean, err := Analyze(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.MaxEngineSteps = 1 << 20
	res, err := Analyze(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("generous budget produced diagnostics: %v", res.Diagnostics)
	}
	branchesEqual(t, "generous", clean.Branches(), res.Branches())
	valsEqual(t, "generous", prog, clean, res)
}

// TestDemoteTop covers the vrange helper directly.
func TestDemoteTop(t *testing.T) {
	if !vrange.DemoteTop(vrange.TopValue()).IsBottom() {
		t.Error("DemoteTop(⊤) != ⊥")
	}
	if !vrange.DemoteTop(vrange.BottomValue()).IsBottom() {
		t.Error("DemoteTop(⊥) != ⊥")
	}
	c := vrange.Const(7)
	if !vrange.DemoteTop(c).Equal(c) {
		t.Error("DemoteTop changed a constant")
	}
}
