package vrp

import "testing"

// TestExplainBranch: an explanation reports a branch's prediction as
// Branches does, marks the derived loop φ behind the loop test, and
// refuses a branch of another function.
func TestExplainBranch(t *testing.T) {
	p := compile(t, `
func g(n) {
	if (n < 3) { return 1; }
	return 2;
}
func main() {
	var s = 0;
	for (var i = 0; i < 10; i++) {
		if (i < 5) { s += g(i); }
	}
	print(s);
}`)
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	derived := false
	for _, br := range res.Branches() {
		ex, err := res.ExplainBranch(br.Fn, br.Instr)
		if err != nil {
			t.Fatalf("%s: %v", br.Fn.Name, err)
		}
		if ex.Prob != br.Prob || ex.Source != br.Source {
			t.Errorf("%s: explained {%v %v}, predicted {%v %v}", br.Fn.Name, ex.Prob, ex.Source, br.Prob, br.Source)
		}
		for _, st := range ex.Steps {
			derived = derived || st.Kind == "φ-derived"
		}
		other := p.ByName["main"]
		if br.Fn == other {
			other = p.ByName["g"]
		}
		if _, err := res.ExplainBranch(other, br.Instr); err == nil {
			t.Errorf("explained a branch of %s as one of %s", br.Fn.Name, other.Name)
		}
	}
	if !derived {
		t.Error("no explanation shows the derived loop φ")
	}
}
