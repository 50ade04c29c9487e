package vrp

import (
	"math"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// firstBranch returns the nth conditional branch prediction of main.
func nthBranch(res *Result, n int) Branch {
	i := 0
	for _, br := range res.Branches() {
		if br.Fn.Name != "main" {
			continue
		}
		if i == n {
			return br
		}
		i++
	}
	return Branch{}
}

func wantProb(t *testing.T, br Branch, p float64, src PredictionSource) {
	t.Helper()
	if math.Abs(br.Prob-p) > 0.005 {
		t.Errorf("branch prob = %.4f, want %.4f", br.Prob, p)
	}
	if br.Source != src {
		t.Errorf("branch source = %v, want %v", br.Source, src)
	}
}

func TestConstantBranchFolds(t *testing.T) {
	res := analyze(t, `
func main() {
	var x = 3;
	if (x < 5) { print(1); } else { print(2); }
}`, DefaultConfig())
	wantProb(t, nthBranch(res, 0), 1, ByRange)
}

func TestImpossibleBranchIsZero(t *testing.T) {
	res := analyze(t, `
func main() {
	for (var i = 0; i < 10; i++) {
		if (i < 0) { print(1); }
	}
}`, DefaultConfig())
	wantProb(t, nthBranch(res, 1), 0, ByRange)
}

func TestSymbolicLoopBound(t *testing.T) {
	// The loop bound is a runtime input: symbolic ranges predict the loop
	// branch at T/(T+1) with the assumed magnitude T=10.
	res := analyze(t, `
func main() {
	var n = input();
	var s = 0;
	for (var i = 0; i < n; i++) { s += i; }
	print(s);
}`, DefaultConfig())
	wantProb(t, nthBranch(res, 0), 10.0/11, ByRange)

	// Numeric-only: the same branch falls back to heuristics.
	cfg := DefaultConfig()
	cfg.Range.Symbolic = false
	res = analyze(t, `
func main() {
	var n = input();
	var s = 0;
	for (var i = 0; i < n; i++) { s += i; }
	print(s);
}`, cfg)
	if br := nthBranch(res, 0); br.Source != ByHeuristic {
		t.Errorf("numeric-only loop bound source = %v, want heuristic", br.Source)
	}
}

func TestDownCountingLoop(t *testing.T) {
	res := analyze(t, `
func main() {
	var s = 0;
	for (var i = 20; i > 0; i--) { s += i; }
	print(s);
}`, DefaultConfig())
	// i ∈ [0:20:1]: P(i > 0) = 20/21.
	wantProb(t, nthBranch(res, 0), 20.0/21, ByRange)
}

func TestStride2Loop(t *testing.T) {
	res := analyze(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i += 2) { s += i; }
	print(s);
}`, DefaultConfig())
	// i ∈ {0,2,4,6,8,10}: P(i < 10) = 5/6.
	wantProb(t, nthBranch(res, 0), 5.0/6, ByRange)
}

func TestMultiIncrementLoop(t *testing.T) {
	// Two different increments in the loop body: the derivation template
	// handles a set of possible increments (stride gcd).
	res := analyze(t, `
func main() {
	var i = 0;
	while (i < 100) {
		if (input() > 0) { i += 2; } else { i += 4; }
	}
	print(i);
}`, DefaultConfig())
	br := nthBranch(res, 0)
	if br.Source != ByRange {
		t.Fatalf("multi-increment loop not derived: %v", br.Source)
	}
	// i ∈ [0:102:2] (51 values... hi = 99+4 aligned down to 102): the
	// exact count is 52; P(i<100) = 50/52.
	if br.Prob < 0.9 || br.Prob > 0.99 {
		t.Errorf("prob = %f", br.Prob)
	}
}

func TestNonDerivableLoopWidens(t *testing.T) {
	// Geometric growth does not match the inductive template; brute-force
	// propagation must widen and terminate, with heuristics taking over.
	res := analyze(t, `
func main() {
	var x = 1;
	while (x < 1000000) { x = x * 2; }
	print(x);
}`, DefaultConfig())
	br := nthBranch(res, 0)
	if br.Prob < 0 || br.Prob > 1 {
		t.Errorf("prob out of range: %f", br.Prob)
	}
	if res.Stats.FailedDerives == 0 {
		t.Error("expected a failed derivation")
	}
}

func TestInterproceduralConstant(t *testing.T) {
	res := analyze(t, `
func kernel(n) {
	var s = 0;
	for (var i = 0; i < n; i++) { s += i; }
	return s;
}
func main() {
	print(kernel(100));
}`, DefaultConfig())
	var kbr *Branch
	for _, br := range res.Branches() {
		if br.Fn.Name == "kernel" {
			b := br
			kbr = &b
		}
	}
	if kbr == nil {
		t.Fatal("no kernel branch")
	}
	// n = 100 via the jump function: P(i<100) = 100/101.
	if kbr.Source != ByRange || math.Abs(kbr.Prob-100.0/101) > 0.005 {
		t.Errorf("kernel loop = %.4f (%v), want 0.990 (range)", kbr.Prob, kbr.Source)
	}
}

func TestInterproceduralMergedCallSites(t *testing.T) {
	res := analyze(t, `
func guard(v) {
	if (v > 50) { return 1; }
	return 0;
}
func main() {
	var s = 0;
	s += guard(10);
	s += guard(90);
	print(s);
}`, DefaultConfig())
	var gbr *Branch
	for _, br := range res.Branches() {
		if br.Fn.Name == "guard" {
			b := br
			gbr = &b
		}
	}
	if gbr == nil {
		t.Fatal("no guard branch")
	}
	// v = {10, 90} with equal weight: P(v > 50) = 0.5, from ranges.
	wantProb(t, *gbr, 0.5, ByRange)
}

func TestReturnRangeFlowsBack(t *testing.T) {
	res := analyze(t, `
func pick() {
	if (input() > 0) { return 3; }
	return 7;
}
func main() {
	var v = pick();
	if (v < 10) { print(1); }
	if (v == 3) { print(2); }
}`, DefaultConfig())
	// v ∈ {3, 7}: v < 10 always true.
	wantProb(t, nthBranch(res, 0), 1, ByRange)
	br := nthBranch(res, 1)
	if br.Source != ByRange || br.Prob < 0.2 || br.Prob > 0.8 {
		t.Errorf("v==3: %.3f (%v)", br.Prob, br.Source)
	}
}

func TestNoInterproceduralOption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interprocedural = false
	res := analyze(t, `
func kernel(n) {
	var s = 0;
	for (var i = 0; i < n; i++) { s += i; }
	return s;
}
func main() {
	print(kernel(100));
}`, cfg)
	for _, br := range res.Branches() {
		if br.Fn.Name == "kernel" && br.Source == ByRange {
			// Still allowed: symbolic bound on the ⊥ parameter gives
			// T/(T+1), but the interprocedural constant 100/101 must NOT
			// appear.
			if math.Abs(br.Prob-100.0/101) < 1e-6 {
				t.Error("interprocedural constant leaked with the feature off")
			}
		}
	}
}

func TestEqualityAssertRecoversLoad(t *testing.T) {
	// §3.5: equality tests recover information even for loads.
	res := analyze(t, `
func main() {
	var a[10];
	a[3] = 5;
	var v = a[input()];
	if (v == 7) {
		if (v < 10) { print(1); } // always true given v == 7
	}
}`, DefaultConfig())
	wantProb(t, nthBranch(res, 1), 1, ByRange)
}

func TestModBranches(t *testing.T) {
	res := analyze(t, `
func main() {
	for (var i = 0; i < 100; i++) {
		if (i % 10 == 0) { print(i); }
	}
}`, DefaultConfig())
	// i ∈ [0:99]... range [0:100:1] for the φ; the guard sees the body
	// range [0:99:1]: P(i % 10 == 0) = 10/100.
	wantProb(t, nthBranch(res, 1), 0.1, ByRange)
}

func TestAssertionFamilyMerge(t *testing.T) {
	// After if/else on x with no assignment, the join φ of the two
	// π-versions must recover the parent range exactly (footnote 4).
	res := analyze(t, `
func main() {
	for (var x = 0; x < 10; x++) {
		if (x > 7) { print(1); } else { print(2); }
		if (x == 3) { print(3); } // x here is the rejoined parent [0:9]
	}
}`, DefaultConfig())
	wantProb(t, nthBranch(res, 2), 0.1, ByRange)
}

func TestFallbackHookUsed(t *testing.T) {
	cfg := DefaultConfig()
	called := 0
	cfg.Fallback = func(f *ir.Func, br *ir.Instr) float64 {
		called++
		return 0.25
	}
	res := analyze(t, `
func main() {
	if (input() > 0) { print(1); }
}`, cfg)
	br := nthBranch(res, 0)
	wantProb(t, br, 0.25, ByHeuristic)
	if called == 0 {
		t.Error("fallback hook never called")
	}
}

func TestValuesExposedPerRegister(t *testing.T) {
	p := compile(t, `
func main() {
	var x = 0;
	for (x = 0; x < 8; x += 2) { print(x); }
	print(x);
}`)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	fr := res.Funcs[f]
	// x's loop-header φ should be derived as [0:8:2].
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Phis() {
			if in.Op != ir.OpPhi || len(f.Names[in.Dst]) == 0 || f.Names[in.Dst][0] != 'x' {
				continue
			}
			v := fr.Value(in.Dst)
			if v.Kind() != vrange.Set || len(v.Ranges) != 1 {
				t.Fatalf("x φ = %v", v)
			}
			rg := v.Ranges[0]
			if rg.Lo.Const != 0 || rg.Hi.Const != 8 || rg.Stride != 2 {
				t.Errorf("x φ = %v, want [0:8:2]", v)
			}
			found = true
		}
	}
	if !found {
		t.Error("x φ not found")
	}
}

func TestRecursionTerminates(t *testing.T) {
	res := analyze(t, `
func fib(n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() {
	print(fib(20));
}`, DefaultConfig())
	for _, br := range res.Branches() {
		if br.Prob < 0 || br.Prob > 1 {
			t.Errorf("prob out of range: %f", br.Prob)
		}
	}
	if res.Stats.Passes == 0 {
		t.Error("no passes recorded")
	}
}

func TestUnreachableBranchStaysDefault(t *testing.T) {
	res := analyze(t, `
func main() {
	var x = 1;
	if (x == 2) {
		if (input() > 0) { print(1); } // unreachable
	}
	print(2);
}`, DefaultConfig())
	br := nthBranch(res, 1)
	if br.Source != ByDefault && br.Source != ByHeuristic {
		t.Errorf("unreachable branch source = %v", br.Source)
	}
}

func TestSubsumesConstantPropagation(t *testing.T) {
	// Every value SCCP would find constant must be a point range.
	p := compile(t, `
func main() {
	var a = 6;
	var b = a * 7;
	var flag = 1;
	var x = 0;
	if (flag == 1) { x = b; } else { x = input(); }
	print(x);
}`)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	fr := res.Funcs[f]
	for r, name := range f.Names {
		if name == "b.0" {
			if c, ok := fr.Value(r).AsConst(); !ok || c != 42 {
				t.Errorf("b.0 = %v, want {42}", fr.Value(r))
			}
		}
		if name == "x.3" { // join: else arm unreachable
			if c, ok := fr.Value(r).AsConst(); !ok || c != 42 {
				t.Errorf("x at join = %v, want {42}", fr.Value(r))
			}
		}
	}
}
