package freq

import (
	"math"
	"testing"

	"vrp/internal/dom"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
)

func buildMain(t *testing.T, src string) *ir.Func {
	t.Helper()
	p, err := parser.Parse("t.mini", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Check(p); err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Main()
}

// computeWith runs the solver with one fixed probability for every branch.
func computeWith(f *ir.Func, p float64) *Frequencies {
	tr := dom.New(f)
	loops := dom.FindLoops(f, tr)
	return Compute(f, tr, loops, func(*ir.Instr) (float64, bool) { return p, true })
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestStraightLine(t *testing.T) {
	f := buildMain(t, "func main() { print(1); print(2); }")
	fr := computeWith(f, 0.5)
	if !approx(fr.Block[f.Entry.ID], 1) {
		t.Errorf("entry freq = %f", fr.Block[f.Entry.ID])
	}
}

func TestDiamond(t *testing.T) {
	f := buildMain(t, `
func main() {
	if (input() > 0) { print(1); } else { print(2); }
	print(3);
}`)
	fr := computeWith(f, 0.25)
	// Arms get 0.25 / 0.75; the join gets 1 again.
	var join *ir.Block
	for _, b := range f.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join")
	}
	if !approx(fr.Block[join.ID], 1) {
		t.Errorf("join freq = %f, want 1", fr.Block[join.ID])
	}
	tEdge := f.Entry.Succs[0]
	fEdge := f.Entry.Succs[1]
	if !approx(fr.Edge[tEdge.ID], 0.25) || !approx(fr.Edge[fEdge.ID], 0.75) {
		t.Errorf("edges = %f / %f", fr.Edge[tEdge.ID], fr.Edge[fEdge.ID])
	}
}

func TestLoopClosedForm(t *testing.T) {
	f := buildMain(t, `
func main() {
	var i = 0;
	while (input() > 0) { i++; }
	print(i);
}`)
	// Loop continues with p: header frequency = 1/(1-p).
	for _, p := range []float64{0.5, 0.9, 10.0 / 11.0} {
		fr := computeWith(f, p)
		tr := dom.New(f)
		loops := dom.FindLoops(f, tr)
		if len(loops.Loops) != 1 {
			t.Fatal("expected one loop")
		}
		h := loops.Loops[0].Header
		want := 1 / (1 - p)
		if !approx(fr.Block[h.ID], want) {
			t.Errorf("p=%f: header freq = %f, want %f", p, fr.Block[h.ID], want)
		}
	}
}

func TestNestedLoopMultiplies(t *testing.T) {
	f := buildMain(t, `
func main() {
	var s = 0;
	while (input() > 0) {
		while (input() > 0) { s++; }
	}
	print(s);
}`)
	fr := computeWith(f, 0.9) // each loop runs 10x expected
	tr := dom.New(f)
	loops := dom.FindLoops(f, tr)
	var inner *dom.Loop
	for _, l := range loops.Loops {
		if l.Depth == 2 {
			inner = l
		}
	}
	if inner == nil {
		t.Fatal("no inner loop")
	}
	// Expected outer body executions: p/(1-p) = 9; the inner header runs
	// 1/(1-p) = 10 times per body execution: 90 total.
	if got := fr.Block[inner.Header.ID]; math.Abs(got-90) > 1 {
		t.Errorf("inner header freq = %f, want ~90", got)
	}
}

func TestUnknownBranchStopsFlow(t *testing.T) {
	f := buildMain(t, `
func main() {
	if (input() > 0) { print(1); }
	print(2);
}`)
	tr := dom.New(f)
	loops := dom.FindLoops(f, tr)
	fr := Compute(f, tr, loops, func(*ir.Instr) (float64, bool) { return 0, false })
	for _, b := range f.Blocks {
		if b == f.Entry {
			continue
		}
		if fr.Block[b.ID] != 0 {
			t.Errorf("b%d freq = %f with unknown branches, want 0", b.ID, fr.Block[b.ID])
		}
	}
}

func TestInfiniteLoopCapped(t *testing.T) {
	f := buildMain(t, `
func main() {
	while (input() > 0) { print(1); }
}`)
	fr := computeWith(f, 1) // "never exits"
	for _, v := range fr.Block {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("frequency overflow: %v", fr.Block)
		}
	}
}

func TestConservationAtJoins(t *testing.T) {
	// Flow in == flow out for every internal block under any probability.
	f := buildMain(t, `
func main() {
	var x = input();
	var s = 0;
	while (x > 0) {
		if (x % 2 == 0) { s += 1; } else { s += 2; }
		x--;
	}
	print(s);
}`)
	fr := computeWith(f, 0.7)
	for _, b := range f.Blocks {
		if b == f.Entry {
			continue
		}
		if t0 := b.Terminator(); t0 != nil && t0.Op == ir.OpRet {
			continue
		}
		in := 0.0
		for _, e := range b.Preds {
			in += fr.Edge[e.ID]
		}
		out := 0.0
		for _, e := range b.Succs {
			out += fr.Edge[e.ID]
		}
		if math.Abs(in-out) > 1e-6*math.Max(1, in) {
			t.Errorf("b%d: in %f != out %f", b.ID, in, out)
		}
	}
}

// TestFactorOnceSolveMany pins the factor-once, solve-many contract: one
// NewSolver performs exactly one CSR factorization, and any number of
// Compute calls on it re-solve against the factored structure without
// re-eliminating loops.
func TestFactorOnceSolveMany(t *testing.T) {
	f := buildMain(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i += 1) {
		for (var j = 0; j < 5; j += 1) {
			if (s < 100) { s += j; } else { s -= 1; }
		}
	}
	print(s);
}`)
	tr := dom.New(f)
	loops := dom.FindLoops(f, tr)

	f0, s0 := Stats()
	s := NewSolver(f, tr, loops, dom.BackEdges(f, tr))
	const solves = 25
	for i := 0; i < solves; i++ {
		// Vary the RHS (branch probabilities) between solves, as the vrp
		// engine does between passes: the factorization must survive.
		p := float64(i+1) / float64(solves+2)
		s.Compute(func(*ir.Instr) (float64, bool) { return p, true })
	}
	f1, s1 := Stats()
	if got := f1 - f0; got != 1 {
		t.Fatalf("NewSolver + %d Compute calls performed %d factorizations, want exactly 1", solves, got)
	}
	if got := s1 - s0; got != solves {
		t.Fatalf("recorded %d solves, want %d", got, solves)
	}
}

// TestFactoredMatchesReferenceAcrossRHS re-solves one factorization under
// many different probability assignments and demands bit-identity with
// the reference scan each time: the factored structure must be a pure
// function of the CFG, never of any particular solve's probabilities.
func TestFactoredMatchesReferenceAcrossRHS(t *testing.T) {
	f := buildMain(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 9; i += 1) {
		if (s % 3 == 0) {
			for (var j = 0; j < 4; j += 1) { s += j; }
		} else {
			s -= 2;
		}
	}
	print(s);
}`)
	tr := dom.New(f)
	loops := dom.FindLoops(f, tr)
	back := dom.BackEdges(f, tr)
	s := NewSolver(f, tr, loops, back)
	for i := 0; i < 20; i++ {
		p := float64(i) / 19.0
		prob := func(br *ir.Instr) (float64, bool) {
			if i%5 == 4 {
				return 0, false // unknown-branch path too
			}
			return p, true
		}
		got := s.Compute(prob)
		want := s.ReferenceCompute(back, prob)
		for b := range want.Block {
			if math.Float64bits(got.Block[b]) != math.Float64bits(want.Block[b]) {
				t.Fatalf("solve %d: block %d: got %v want %v", i, b, got.Block[b], want.Block[b])
			}
		}
		for e := range want.Edge {
			if math.Float64bits(got.Edge[e]) != math.Float64bits(want.Edge[e]) {
				t.Fatalf("solve %d: edge %d: got %v want %v", i, e, got.Edge[e], want.Edge[e])
			}
		}
	}
}
