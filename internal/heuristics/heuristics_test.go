package heuristics

import (
	"math"
	"sync"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
)

func compile(t *testing.T, src string) *ir.Program {
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
	if err := ssaform.Build(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// branches returns main's conditional branches in block order.
func branches(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
			out = append(out, t)
		}
	}
	return out
}

func TestDempsterShafer(t *testing.T) {
	// Wu–Larus: combining 0.88 and 0.88 strengthens the prediction.
	got := dempsterShafer(0.88, 0.88)
	want := 0.88 * 0.88 / (0.88*0.88 + 0.12*0.12)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DS(0.88, 0.88) = %f, want %f", got, want)
	}
	if dempsterShafer(0.5, 0.7) != 0.7 {
		t.Error("0.5 must be the DS identity")
	}
	if got := dempsterShafer(0.8, 0.2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("opposing evidence must cancel: %f", got)
	}
}

func TestLoopBranchHeuristic(t *testing.T) {
	prog := compile(t, `
func main() {
	var i = 0;
	while (input() > 0) { i++; }
	print(i);
}`)
	f := prog.Main()
	h := NewBallLarus(prog)
	brs := branches(f)
	if len(brs) != 1 {
		t.Fatalf("branches = %d", len(brs))
	}
	// The loop-continuation edge should be strongly predicted.
	p := h.Prob(f, brs[0])
	if p < 0.8 {
		t.Errorf("loop branch prob = %f, want >= 0.8", p)
	}
}

func TestOpcodeHeuristicEqConst(t *testing.T) {
	prog := compile(t, `
func main() {
	var x = input();
	if (x == 7) { print(1); } else { print(2); }
	print(3);
}`)
	f := prog.Main()
	h := NewBallLarus(prog)
	brs := branches(f)
	p := h.Prob(f, brs[0])
	if p >= 0.5 {
		t.Errorf("x == const should be predicted untaken: %f", p)
	}
}

func TestOpcodeHeuristicLtZero(t *testing.T) {
	prog := compile(t, `
func main() {
	var x = input();
	if (x < 0) { print(1); } else { print(2); }
	print(3);
}`)
	f := prog.Main()
	h := NewBallLarus(prog)
	p := h.Prob(f, branches(f)[0])
	if p >= 0.5 {
		t.Errorf("x < 0 should be predicted untaken: %f", p)
	}
}

func TestReturnHeuristic(t *testing.T) {
	prog := compile(t, `
func main() {
	var x = input();
	if (x != 0) { return 1; }
	var i = 0;
	while (i < 3) { i++; }
	return 0;
}`)
	f := prog.Main()
	h := NewBallLarus(prog)
	// The arm returning early should be disfavoured... combined with the
	// opcode heuristic for != which favours taken; just require the
	// return evidence to appear (probability differs from the opcode-only
	// value 0.84).
	p := h.Prob(f, branches(f)[0])
	if p >= 0.84 {
		t.Errorf("return heuristic did not weaken the taken arm: %f", p)
	}
}

func TestNinetyFifty(t *testing.T) {
	prog := compile(t, `
func main() {
	var i = 0;
	while (i < 10) { i++; }
	if (input() > 0) { print(1); }
	print(2);
}`)
	f := prog.Main()
	brs := branches(f)
	if len(brs) != 2 {
		t.Fatalf("branches = %d", len(brs))
	}
	// Loop branch: the true edge goes forward into the body... the back
	// edge is from the latch (unconditional). For the while-header branch
	// both succs are forward: 50%.
	// The if: both succs forward: 50%.
	for _, br := range brs {
		p := NinetyFifty(f, br)
		if p != 0.5 && p != 0.9 && p != 0.1 {
			t.Errorf("90/50 produced %f", p)
		}
	}
}

func TestNinetyFiftyBackEdge(t *testing.T) {
	// A do-while-shaped loop has a conditional back edge.
	prog := compile(t, `
func main() {
	var i = 0;
	for (;;) {
		i++;
		if (i >= 10) { break; }
	}
	print(i);
}`)
	f := prog.Main()
	found := false
	for _, br := range branches(f) {
		tEdge, fEdge := br.Block.Succs[0], br.Block.Succs[1]
		tBack := tEdge.To.ID <= br.Block.ID
		fBack := fEdge.To.ID <= br.Block.ID
		if tBack != fBack {
			found = true
			p := NinetyFifty(f, br)
			if tBack && p != 0.9 {
				t.Errorf("backward-true branch: %f, want 0.9", p)
			}
			if fBack && p != 0.1 {
				t.Errorf("backward-false branch: %f, want 0.1", p)
			}
		}
	}
	if !found {
		t.Skip("no conditional back edge in this lowering")
	}
}

func TestRandomDeterministic(t *testing.T) {
	prog := compile(t, `
func main() {
	if (input() > 0) { print(1); }
	if (input() > 1) { print(2); }
}`)
	f := prog.Main()
	brs := branches(f)
	p1a := Random(f, brs[0])
	p1b := Random(f, brs[0])
	p2 := Random(f, brs[1])
	if p1a != p1b {
		t.Error("Random must be deterministic per branch")
	}
	if p1a == p2 {
		t.Error("Random should differ across branches")
	}
	if p1a < 0 || p1a > 1 {
		t.Errorf("Random out of range: %f", p1a)
	}
}

func TestProbInRangeForAllCorpusShapes(t *testing.T) {
	prog := compile(t, `
func f(a) {
	if (a < 0) { return -a; }
	return a;
}
func main() {
	var s = 0;
	for (var i = 0; i < 100; i++) {
		var v = input();
		if (v % 2 == 0 && v > 10) { s += f(v); }
		else if (v == 3) { s--; }
	}
	print(s);
}`)
	h := NewBallLarus(prog)
	for _, f := range prog.Funcs {
		for _, br := range branches(f) {
			p := h.Prob(f, br)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Errorf("%s: prob %f out of range", f.Name, p)
			}
		}
	}
}

// TestBallLarusConcurrentFirstUse: the analysis driver's workers call
// Prob concurrently, so several goroutines may be first to ask about one
// function and race to build its structure. Every answer must equal the
// one a single goroutine gets (run under -race, this also checks the
// on-demand build is synchronized).
func TestBallLarusConcurrentFirstUse(t *testing.T) {
	prog := compile(t, `
func f(a, b) {
	var s = 0;
	for (var i = 0; i < a; i++) {
		if (i == b) { s += 2; } else { s -= 1; }
	}
	if (s < 0) { return 0; }
	return s;
}
func main() {
	var n = input();
	while (n > 1) {
		if (n % 2 == 0) { n = n / 2; } else { n = f(n, 3); }
	}
	print(n);
}`)
	want := map[*ir.Instr]float64{}
	seq := NewBallLarus(prog)
	for _, f := range prog.Funcs {
		for _, br := range branches(f) {
			want[br] = seq.Prob(f, br)
		}
	}
	shared := NewBallLarus(prog)
	const goroutines = 8
	got := make([]map[*ir.Instr]float64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = map[*ir.Instr]float64{}
		wg.Add(1)
		go func(m map[*ir.Instr]float64) {
			defer wg.Done()
			for _, f := range prog.Funcs {
				for _, br := range branches(f) {
					m[br] = shared.Prob(f, br)
				}
			}
		}(got[g])
	}
	wg.Wait()
	for g, m := range got {
		for br, p := range want {
			if m[br] != p {
				t.Errorf("goroutine %d: Prob = %v, want %v", g, m[br], p)
			}
		}
	}
}
