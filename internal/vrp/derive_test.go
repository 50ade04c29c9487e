package vrp

import (
	"math"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// phiValueOf returns the value of the first loop-header φ whose SSA name
// starts with the given variable prefix.
func phiValueOf(t *testing.T, src, varName string) (vrange.Value, *Result) {
	t.Helper()
	p := compile(t, src)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	fr := res.Funcs[f]
	for _, b := range f.Blocks {
		hasBack := false
		for _, pe := range b.Preds {
			if pe.From.ID >= b.ID {
				hasBack = true
			}
		}
		if !hasBack {
			continue
		}
		for _, in := range b.Phis() {
			if in.Op != ir.OpPhi {
				continue
			}
			n := f.Names[in.Dst]
			if len(n) > len(varName) && n[:len(varName)] == varName && n[len(varName)] == '.' {
				return fr.Value(in.Dst), res
			}
		}
	}
	t.Fatalf("no loop φ for %q", varName)
	return vrange.Value{}, nil
}

func wantRange(t *testing.T, v vrange.Value, lo, hi, stride int64) {
	t.Helper()
	if v.Kind() != vrange.Set || len(v.Ranges) != 1 {
		t.Fatalf("value = %v, want single range", v)
	}
	r := v.Ranges[0]
	if !r.Lo.IsNum() || !r.Hi.IsNum() || r.Lo.Const != lo || r.Hi.Const != hi || r.Stride != stride {
		t.Errorf("range = %v, want [%d:%d:%d]", v, lo, hi, stride)
	}
}

func TestDeriveUpCounting(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 0; i < 10; i++) { print(i); }
}`, "i")
	wantRange(t, v, 0, 10, 1)
}

func TestDeriveLeBound(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 0; i <= 10; i++) { print(i); }
}`, "i")
	wantRange(t, v, 0, 11, 1)
}

func TestDeriveDownCounting(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 9; i >= 0; i--) { print(i); }
}`, "i")
	wantRange(t, v, -1, 9, 1)
}

func TestDeriveDownCountingGt(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 20; i > 5; i -= 3) { print(i); }
}`, "i")
	// Values 20,17,14,11,8 then 5 on exit: [5:20:3].
	wantRange(t, v, 5, 20, 3)
}

func TestDeriveNonzeroStart(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 3; i < 12; i += 2) { print(i); }
}`, "i")
	// 3,5,7,9,11,13: hi = 11+2 = 13.
	wantRange(t, v, 3, 13, 2)
}

func TestDeriveWhileShape(t *testing.T) {
	v, _ := phiValueOf(t, `
func main() {
	var i = 0;
	while (i < 100) {
		i += 10;
	}
	print(i);
}`, "i")
	wantRange(t, v, 0, 100, 10)
}

func TestDeriveWithContinue(t *testing.T) {
	// continue adds a second path to the latch; both carry the increment
	// via the post statement.
	v, _ := phiValueOf(t, `
func main() {
	for (var i = 0; i < 30; i++) {
		if (i % 3 == 0) { continue; }
		print(i);
	}
}`, "i")
	wantRange(t, v, 0, 30, 1)
}

func TestDeriveInnerBoundFromOuter(t *testing.T) {
	// Triangular nest: inner bound is the outer induction variable —
	// a symbolic, same-function ancestor.
	src := `
func main() {
	for (var i = 0; i < 10; i++) {
		for (var j = 0; j < i; j++) { print(j); }
	}
}`
	res := analyze(t, src, DefaultConfig())
	// Both loop branches must come from ranges: the outer with its exact
	// constant bound (10/11), the inner via the correlation-preserving
	// symbolic bound (T/(T+1), not the washed-out independent estimate).
	var probs []float64
	for _, br := range res.Branches() {
		if br.Source != ByRange {
			t.Errorf("branch %s predicted by %v", br.Instr, br.Source)
			continue
		}
		probs = append(probs, br.Prob)
	}
	if len(probs) != 2 {
		t.Fatalf("range-predicted branches = %d, want 2", len(probs))
	}
	for _, p := range probs {
		if math.Abs(p-10.0/11) > 0.01 {
			t.Errorf("branch prob %.4f, want ~%.4f", p, 10.0/11)
		}
	}
}

func TestDeriveFailsOnGeometric(t *testing.T) {
	p := compile(t, `
func main() {
	var x = 1;
	while (x < 4096) { x *= 2; }
	print(x);
}`)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FailedDerives == 0 {
		t.Error("geometric loop should fail derivation")
	}
	// The loop branch still gets *some* probability.
	for _, br := range res.Branches() {
		if br.Prob < 0 || br.Prob > 1 || math.IsNaN(br.Prob) {
			t.Errorf("prob = %v", br.Prob)
		}
	}
}

func TestDeriveEqExitConstraint(t *testing.T) {
	// `i != n` exit tests don't match the template (the paper's template
	// wants bounding relations); the engine must stay sound regardless.
	res := analyze(t, `
func main() {
	var i = 0;
	while (i != 12) { i += 3; }
	print(i);
}`, DefaultConfig())
	for _, br := range res.Branches() {
		if br.Prob < 0 || br.Prob > 1 {
			t.Errorf("prob out of range: %v", br.Prob)
		}
	}
}

func TestDeriveBoundLoweringReDerives(t *testing.T) {
	// The loop bound is a call result that lowers from ⊤ to a constant
	// across interprocedural passes; the derived φ must follow it.
	v, _ := phiValueOf(t, `
func limit() { return 8; }
func main() {
	for (var i = 0; i < limit(); i++) { print(i); }
}`, "i")
	wantRange(t, v, 0, 8, 1)
}
