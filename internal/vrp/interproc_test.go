package vrp

import (
	"math"
	"slices"
	"testing"

	"vrp/internal/vrange"
)

func TestInterprocRecursiveParamRanges(t *testing.T) {
	// fact(n-1) feeds the parameter back with a shrinking range; the
	// engine must reach a fixed point with sane probabilities.
	res := analyze(t, `
func fact(n) {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
func main() {
	print(fact(10));
}`, DefaultConfig())
	for _, br := range res.Branches() {
		if br.Prob < 0 || br.Prob > 1 || math.IsNaN(br.Prob) {
			t.Errorf("prob = %v", br.Prob)
		}
	}
}

func TestInterprocMultipleReturns(t *testing.T) {
	// The merged return range {1,2,3} feeds the caller's comparison.
	res := analyze(t, `
func pick(k) {
	if (k == 0) { return 1; }
	if (k == 1) { return 2; }
	return 3;
}
func main() {
	var v = pick(input() % 3);
	if (v <= 3) { print(1); } // always true
	if (v == 0) { print(2); } // never true
}`, DefaultConfig())
	var probs []float64
	for _, br := range res.Branches() {
		if br.Fn.Name == "main" {
			probs = append(probs, br.Prob)
		}
	}
	if len(probs) != 2 {
		t.Fatalf("main branches = %d", len(probs))
	}
	if probs[0] != 1 {
		t.Errorf("v<=3 = %.3f, want 1", probs[0])
	}
	if probs[1] != 0 {
		t.Errorf("v==0 = %.3f, want 0", probs[1])
	}
}

func TestInterprocUncalledFunction(t *testing.T) {
	// A never-called function still gets analyzed without errors; its
	// parameters stay unknown.
	res := analyze(t, `
func orphan(x) {
	if (x > 0) { return x; }
	return -x;
}
func main() { print(1); }`, DefaultConfig())
	for _, br := range res.Branches() {
		if br.Fn.Name == "orphan" {
			if br.Prob < 0 || br.Prob > 1 {
				t.Errorf("orphan prob = %v", br.Prob)
			}
		}
	}
}

func TestInterprocCallSiteWeighting(t *testing.T) {
	// One call site executes 100x more often; the merged parameter range
	// must weight it accordingly: P(v == 1) ≈ 100/101.
	res := analyze(t, `
func probe(v) {
	if (v == 1) { return 10; }
	return 20;
}
func main() {
	var s = 0;
	for (var i = 0; i < 100; i++) { s += probe(1); }
	s += probe(2);
	print(s);
}`, DefaultConfig())
	var got *Branch
	for _, br := range res.Branches() {
		if br.Fn.Name == "probe" {
			b := br
			got = &b
		}
	}
	if got == nil {
		t.Fatal("no probe branch")
	}
	if got.Source != ByRange {
		t.Fatalf("probe source = %v", got.Source)
	}
	want := 100.0 / 101.0 // weighted by call frequency
	if math.Abs(got.Prob-want) > 0.03 {
		t.Errorf("P(v==1) = %.4f, want ~%.4f", got.Prob, want)
	}
}

func TestSanitizeStripsSymbolic(t *testing.T) {
	// A symbolic argument (caller-local ancestor) cannot cross the call
	// boundary; the callee sees ⊥, not a dangling symbol.
	res := analyze(t, `
func inner(v) {
	if (v > 5) { return 1; }
	return 0;
}
func main() {
	var x = input();
	print(inner(x)); // x is symbolic {1[x:x:0]} in main
}`, DefaultConfig())
	for _, br := range res.Branches() {
		if br.Fn.Name == "inner" && br.Source == ByRange {
			t.Errorf("inner branch predicted from a range that cannot exist: %v", br.Prob)
		}
	}
}

func TestMutualRecursionTerminates(t *testing.T) {
	res := analyze(t, `
func even(n) {
	if (n == 0) { return 1; }
	return odd(n - 1);
}
func odd(n) {
	if (n == 0) { return 0; }
	return even(n - 1);
}
func main() {
	print(even(20));
}`, DefaultConfig())
	if res.Stats.Passes == 0 || res.Stats.Passes > DefaultConfig().MaxPasses {
		t.Errorf("passes = %d", res.Stats.Passes)
	}
	for _, br := range res.Branches() {
		if br.Prob < 0 || br.Prob > 1 {
			t.Errorf("prob = %v", br.Prob)
		}
	}
}

// TestInputSnapshotReplay: while every caller contribution of a function
// is the callerArgs its last formal merge read, the next input snapshot
// reuses the merged formals bit for bit, replays the merge's
// sub-operations and set-cap widenings, and touches no cons table; once
// a caller installs a new contribution the merge runs again.
func TestInputSnapshotReplay(t *testing.T) {
	p := compileSrc(t, "replay.mini", `
func g(x) {
	if (x > 3) { return 1; }
	return 0;
}
func a() { return g(1); }
func b() { return g(5); }
func main() { print(a() + b()); }
`)
	cfg := DefaultConfig()
	cfg.Range.MaxRanges = 1 // the two contributions' merge widens
	d := newDriver(p, cfg)
	gi := d.cg.Index[p.ByName["g"]]
	if len(d.cg.Callers[gi]) != 2 {
		t.Fatalf("g has %d callers, want 2", len(d.cg.Callers[gi]))
	}
	d.ip.args[gi][0] = &callerArgs{vals: []vrange.Value{hullRange(1, 1)}, w: 1}
	d.ip.args[gi][1] = &callerArgs{vals: []vrange.Value{hullRange(5, 5)}, w: 3}
	// A snapshot lives until the function's next visit (computeInputs
	// refills its scratch), so each one is copied out.
	snapshot := func() (funcInputs, *vrange.Calc) {
		calc := vrange.NewCalcWith(cfg.Range, vrange.NewInternerSized(64))
		in := *d.computeInputs(gi, calc)
		in.params = slices.Clone(in.params)
		return in, calc
	}

	first, c1 := snapshot()
	if c1.SubOps == 0 || c1.Widens == 0 || c1.InternHits+c1.InternMisses == 0 {
		t.Fatalf("first merge: %d sub-operations, %d widens, %d intern lookups; want all > 0",
			c1.SubOps, c1.Widens, c1.InternHits+c1.InternMisses)
	}
	second, c2 := snapshot()
	if !bitEqualVec(second.params, first.params) || second.hash != first.hash {
		t.Errorf("reused formals %v, want %v", second.params, first.params)
	}
	if c2.SubOps != c1.SubOps || c2.Widens != c1.Widens {
		t.Errorf("replay added %d sub-operations and %d widens, want %d and %d",
			c2.SubOps, c2.Widens, c1.SubOps, c1.Widens)
	}
	if n := c2.InternHits + c2.InternMisses; n != 0 {
		t.Errorf("replay made %d intern lookups, want 0", n)
	}

	d.ip.args[gi][0] = &callerArgs{vals: []vrange.Value{hullRange(2, 2)}, w: 1}
	third, c3 := snapshot()
	ref := vrange.NewCalcWith(cfg.Range, vrange.NewInternerSized(64))
	want := ref.Merge([]vrange.Weighted{{Val: hullRange(2, 2), W: 1}, {Val: hullRange(5, 5), W: 3}})
	if !third.params[0].BitEqual(want) || third.params[0].BitEqual(first.params[0]) {
		t.Errorf("after a new contribution the formal is %v, want a fresh merge %v", third.params[0], want)
	}
	if c3.InternHits+c3.InternMisses == 0 || c3.SubOps != ref.SubOps || c3.Widens != ref.Widens {
		t.Errorf("after a new contribution: %d sub-operations, %d widens, %d intern lookups; want %d, %d and a merge",
			c3.SubOps, c3.Widens, c3.InternHits+c3.InternMisses, ref.SubOps, ref.Widens)
	}
}
