package vrp_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vrp"
)

const quickSrc = `
func main() {
	var y = 0;
	for (var x = 0; x < 10; x++) {
		if (x > 7) { y = 1; } else { y = x; }
		if (y == 1) { print(y); }
	}
}
`

func TestCompileAndAnalyze(t *testing.T) {
	p, err := vrp.Compile("q.mini", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	preds := a.Predictions()
	if len(preds) != 3 {
		t.Fatalf("predictions = %d", len(preds))
	}
	want := []float64{10.0 / 11, 0.2, 0.3}
	for i, pr := range preds {
		if math.Abs(pr.Prob-want[i]) > 0.005 {
			t.Errorf("prediction %d = %.4f, want %.4f", i, pr.Prob, want[i])
		}
		if pr.Source != "range" {
			t.Errorf("prediction %d source = %s", i, pr.Source)
		}
		if !pr.Pos.IsValid() {
			t.Errorf("prediction %d has no source position", i)
		}
		if pr.Func != "main" {
			t.Errorf("prediction %d func = %s", i, pr.Func)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"func main() { x = ; }", "parse"},
		{"func main() { y = 1; }", "check"},
	}
	for _, c := range cases {
		_, err := vrp.Compile("bad.mini", c.src)
		if err == nil {
			t.Errorf("Compile(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("error %q missing stage %q", err, c.frag)
		}
	}
}

func TestRunAndProfile(t *testing.T) {
	p, err := vrp.Compile("q.mini", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Output) != 3 { // y==1 in iterations 1, 8, 9
		t.Errorf("output = %v", prof.Output)
	}
	// Observed behaviour matches the prediction exactly for this program.
	a, _ := p.Analyze()
	for _, pr := range a.Predictions() {
		obs, ok := prof.BranchProb(pr.Fn, pr.Branch)
		if !ok {
			t.Fatal("branch not executed")
		}
		if math.Abs(obs-pr.Prob) > 0.01 {
			t.Errorf("prediction %.3f vs observed %.3f", pr.Prob, obs)
		}
	}
}

func TestValueString(t *testing.T) {
	p, err := vrp.Compile("q.mini", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := a.ValueString("main", "x.1")
	if !ok {
		t.Fatal("x.1 missing")
	}
	if s != "{ 1[0:10:1] }" {
		t.Errorf("x.1 = %s", s)
	}
	if _, ok := a.ValueString("nosuch", "x.1"); ok {
		t.Error("unknown function should fail")
	}
	if _, ok := a.ValueString("main", "zz.9"); ok {
		t.Error("unknown variable should fail")
	}
}

func TestOptions(t *testing.T) {
	src := `
func main() {
	var n = input();
	var s = 0;
	for (var i = 0; i < n; i++) { s += i; }
	print(s);
}`
	p, err := vrp.Compile("opt.mini", src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := p.Analyze(vrp.NumericOnly())
	if err != nil {
		t.Fatal(err)
	}
	if full.Predictions()[0].Source != "range" {
		t.Error("full analysis should predict the symbolic loop from ranges")
	}
	if numeric.Predictions()[0].Source == "range" {
		t.Error("numeric-only analysis should not use symbolic ranges")
	}
	if _, err := p.Analyze(vrp.WithMaxRanges(2), vrp.WithoutDerivation(), vrp.WithoutInterprocedural()); err != nil {
		t.Fatal(err)
	}
}

func TestNoAssertionCompile(t *testing.T) {
	p, err := vrp.CompileWith("q.mini", quickSrc, vrp.CompileOptions{NoAssertions: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Without π-nodes the x>7 branch can no longer be 0.2 exactly; it
	// must still produce a valid probability.
	for _, pr := range a.Predictions() {
		if pr.Prob < 0 || pr.Prob > 1 {
			t.Errorf("prob %f out of range", pr.Prob)
		}
	}
}

func TestAnalyzeContextFacade(t *testing.T) {
	p, err := vrp.Compile("q.mini", quickSrc)
	if err != nil {
		t.Fatal(err)
	}

	// A live context behaves exactly like Analyze, and a healthy run is
	// converged with no diagnostics.
	a, err := p.AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged() {
		t.Error("healthy run reports Converged=false")
	}
	if ds := a.Diagnostics(); len(ds) != 0 {
		t.Errorf("healthy run has diagnostics: %v", ds)
	}

	// A cancelled context aborts with the typed error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err = p.AnalyzeContext(ctx)
	if a != nil {
		t.Fatal("cancelled analysis returned a result")
	}
	var ae *vrp.AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *vrp.AnalysisError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
}

func TestMaxEngineStepsFacade(t *testing.T) {
	p, err := vrp.Compile("q.mini", quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Analyze(vrp.WithMaxEngineSteps(1))
	if err != nil {
		t.Fatal(err)
	}
	var budget []vrp.Diagnostic
	for _, d := range a.Diagnostics() {
		if d.Kind == vrp.DiagStepBudget {
			budget = append(budget, d)
		}
	}
	if len(budget) == 0 {
		t.Fatal("no step-budget diagnostic under a one-step budget")
	}
	if budget[0].Func != "main" {
		t.Errorf("diagnostic func = %q, want main", budget[0].Func)
	}
	// Degraded branches still produce predictions (heuristic fallback).
	if len(a.Predictions()) != 3 {
		t.Errorf("predictions = %d, want 3", len(a.Predictions()))
	}
}
