package vrp

import (
	"math"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// TestCoupledAccumulator: an accumulator without its own exit test gets a
// range from the sibling induction variable's trip count (the derivation
// extension the paper suggests in §3.6).
func TestCoupledAccumulator(t *testing.T) {
	p := compile(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i++) { s = s + 3; }
	print(s);
}`)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	fr := res.Funcs[f]
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Phis() {
			if in.Op != ir.OpPhi || len(f.Names[in.Dst]) == 0 || f.Names[in.Dst][0] != 's' {
				continue
			}
			v := fr.Value(in.Dst)
			if v.Kind() != vrange.Set || len(v.Ranges) != 1 {
				t.Fatalf("s φ = %v", v)
			}
			rg := v.Ranges[0]
			// i runs 10 trips: s ∈ [0:30:3].
			if rg.Lo.Const != 0 || rg.Hi.Const != 30 || rg.Stride != 3 {
				t.Errorf("s φ = %v, want [0:30:3]", v)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("s φ not found")
	}
}

// TestCoupledAccumulatorBranch: the coupled range feeds a branch
// prediction.
func TestCoupledAccumulatorBranch(t *testing.T) {
	res := analyze(t, `
func main() {
	var c = 0;
	for (var i = 0; i < 16; i++) {
		if (input() > 0) { c = c + 1; }
	}
	if (c > 8) { print(1); }
}`, DefaultConfig())
	// c ∈ [0:16:1]: P(c > 8) = 8/17 ≈ 0.47 — the only branch predicted
	// from ranges near that value (the loop branch is ~0.94; the input
	// guard is heuristic).
	found := false
	for _, br := range res.Branches() {
		if br.Source == ByRange && br.Prob > 0.4 && br.Prob < 0.55 {
			if math.Abs(br.Prob-8.0/17) > 0.01 {
				t.Errorf("P(c>8) = %.4f, want %.4f", br.Prob, 8.0/17)
			}
			found = true
		}
	}
	if !found {
		t.Error("c>8 not predicted from the coupled accumulator range")
	}
}

// TestCoupledNotAppliedWithoutSibling: a self-contained unbounded loop
// still widens to ⊥ (no sibling to couple with).
func TestCoupledNotAppliedWithoutSibling(t *testing.T) {
	res := analyze(t, `
func main() {
	var s = 0;
	while (input() > 0) { s = s + 3; }
	print(s);
}`, DefaultConfig())
	p := compile(t, `
func main() {
	var s = 0;
	while (input() > 0) { s = s + 3; }
	print(s);
}`)
	res2, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	f := p.Main()
	fr := res2.Funcs[f]
	for _, b := range f.Blocks {
		for _, in := range b.Phis() {
			if in.Op == ir.OpPhi && len(f.Names[in.Dst]) > 0 && f.Names[in.Dst][0] == 's' {
				if !fr.Value(in.Dst).IsBottom() {
					t.Errorf("unbounded s φ = %v, want ⊥", fr.Value(in.Dst))
				}
			}
		}
	}
}
