package freq_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/genprog"
	"vrp/internal/ir"
)

// updateRun drives one Solver through single-branch changes and checks
// every Update against a second Solver's full Compute of the same
// probabilities: block and edge frequencies Float64bits-equal, and the
// returned list exactly the edges whose bits changed, ascending.
type updateRun struct {
	t        testing.TB
	name     string
	f        *ir.Func
	back     []bool
	s, ref   *freq.Solver
	fr       *freq.Frequencies
	prev     []float64
	p        []float64 // by block ID; NaN: unknown
	branches []*ir.Block
	steps    int
}

func newUpdateRun(t testing.TB, name string, f *ir.Func, seed uint64) *updateRun {
	tree := dom.New(f)
	loops := dom.FindLoops(f, tree)
	u := &updateRun{t: t, name: name, f: f, back: dom.BackEdges(f, tree), p: make([]float64, len(f.Blocks))}
	u.s = freq.NewSolver(f, tree, loops, u.back)
	u.ref = freq.NewSolver(f, tree, loops, u.back)
	init := probFor(seed)
	for _, b := range f.Blocks {
		u.p[b.ID] = math.NaN()
		if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
			u.branches = append(u.branches, b)
			if p, known := init(t); known {
				u.p[b.ID] = p
			}
		}
	}
	u.fr = u.s.Compute(u.prob)
	u.prev = slices.Clone(u.fr.Edge)
	u.check(nil, true)
	return u
}

func (u *updateRun) prob(br *ir.Instr) (float64, bool) {
	p := u.p[br.Block.ID]
	return p, !math.IsNaN(p)
}

// change sets branch i%len(branches) to probability code v (0: unknown,
// else (v-1)/254, so 0 and 1 are reachable) and updates the solver. A
// code v%16 == 15 only Marks the branch, as the engine does past its
// update budget: the next Update must re-solve it too.
func (u *updateRun) change(i, v byte) {
	if len(u.branches) == 0 {
		return
	}
	b := u.branches[int(i)%len(u.branches)]
	u.p[b.ID] = math.NaN()
	if v != 0 {
		u.p[b.ID] = float64(v-1) / 254
	}
	if v%16 == 15 {
		u.s.Mark(b)
		return
	}
	u.steps++
	u.check(u.s.Update(b), u.steps%8 == 0)
}

// check compares the solver's current solution with a full solve, and
// changed (unless nil) with the edges whose bits moved since the last
// check; withRef also compares with the ReferenceCompute oracle.
func (u *updateRun) check(changed []int32, withRef bool) {
	u.t.Helper()
	want := u.ref.Compute(u.prob)
	same := func(kind string, got, want []float64) {
		u.t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				u.t.Fatalf("%s/%s step %d: %s %d freq %v, full solve %v", u.name, u.f.Name, u.steps, kind, i, got[i], want[i])
			}
		}
	}
	same("block", u.fr.Block, want.Block)
	same("edge", u.fr.Edge, want.Edge)
	if withRef {
		ref := u.s.ReferenceCompute(u.back, u.prob)
		same("block", u.fr.Block, ref.Block)
		same("edge", u.fr.Edge, ref.Edge)
	}
	if changed != nil {
		var moved []int32
		for i, v := range u.fr.Edge {
			if math.Float64bits(v) != math.Float64bits(u.prev[i]) {
				moved = append(moved, int32(i))
			}
		}
		if !slices.Equal(changed, moved) {
			u.t.Fatalf("%s/%s step %d: Update returned edges %v, bits moved on %v", u.name, u.f.Name, u.steps, changed, moved)
		}
	}
	copy(u.prev, u.fr.Edge)
}

// updateSeq derives a deterministic change sequence from seed: mostly
// fresh probabilities, every fifth change unknown, every seventh the fixed
// code 128, so some changes leave a branch's probability as it was.
func updateSeq(seed uint64, n int) []byte {
	r := splitmix{s: seed}
	out := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		v := r.next()
		code := byte(v%255) + 1
		switch {
		case i%5 == 4:
			code = 0
		case i%7 == 6:
			code = 128
		}
		out = append(out, byte(v>>32), code)
	}
	return out
}

func diffUpdates(t *testing.T, name string, p *ir.Program, steps int) {
	t.Helper()
	for _, f := range p.Funcs {
		for seed := uint64(1); seed <= 2; seed++ {
			u := newUpdateRun(t, name, f, seed)
			seq := updateSeq(seed*31+uint64(len(f.Blocks)), steps)
			for i := 0; i+1 < len(seq); i += 2 {
				u.change(seq[i], seq[i+1])
			}
		}
	}
}

func compileGen(t testing.TB, name string, cfg genprog.Config) *ir.Program {
	p, err := vrp.Compile(name+".mini", genprog.Source(cfg))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p.IR
}

// TestUpdateMatchesComputeCorpus is the incremental solver's differential
// test on every corpus function.
func TestUpdateMatchesComputeCorpus(t *testing.T) {
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		diffUpdates(t, cp.Name, p.IR, 100)
	}
}

// TestUpdateMatchesComputePresets runs the differential test on every
// genprog preset but 100k (the 10k shape at a larger size).
func TestUpdateMatchesComputePresets(t *testing.T) {
	for _, name := range genprog.PresetNames() {
		if name == "100k" {
			continue
		}
		cfg, _ := genprog.Preset(name)
		diffUpdates(t, name, compileGen(t, name, cfg), 30)
	}
}

// TestUpdateMatchesComputeDiamonds runs the differential test on a
// series of diamond-dense programs, whose long acyclic chains are where
// an update stops earliest.
func TestUpdateMatchesComputeDiamonds(t *testing.T) {
	for _, n := range []int{6, 24, 96} {
		name := fmt.Sprintf("diamonds-%d", n)
		diffUpdates(t, name, compileGen(t, name, genprog.Config{Seed: 0x5eed, Funcs: 8, Diamonds: n, LoopDepth: 3}), 100)
	}
}

// irreducibleFunc builds, by hand, a loop whose body holds a two-entry
// cycle A ⇄ B: one of the two edges runs against reverse postorder
// without being a back edge, so RPO does not top-sort the forward edges.
//
//	entry → H; H → P | X; P → A | B; A → B | L; B → A | L; L → H; X: ret
func irreducibleFunc() *ir.Func {
	f := &ir.Func{Name: "irreducible", NumRegs: 2}
	entry, h, p, a, b, l, x := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	br := func(from, t, e *ir.Block) {
		from.Append(&ir.Instr{Op: ir.OpBr, A: 1})
		f.AddEdge(from, t, ir.EdgeTrue)
		f.AddEdge(from, e, ir.EdgeFalse)
	}
	jmp := func(from, to *ir.Block) {
		from.Append(&ir.Instr{Op: ir.OpJmp})
		f.AddEdge(from, to, ir.EdgeJump)
	}
	jmp(entry, h)
	br(h, p, x)
	br(p, a, b)
	br(a, b, l)
	br(b, a, l)
	jmp(l, h)
	x.Append(&ir.Instr{Op: ir.OpRet})
	f.Renumber()
	return f
}

// TestUpdateNonTopoFullWalks covers the CFG whose reverse postorder does
// not top-sort its forward edges: every Update must be a full walk, and
// still equal Compute and the reference scan bit for bit, in the loop
// region and in the function region that reads the loop's value of the
// retreating edge.
func TestUpdateNonTopoFullWalks(t *testing.T) {
	f := irreducibleFunc()
	tree := dom.New(f)
	back := dom.BackEdges(f, tree)
	nback, retreating := 0, 0
	for _, e := range f.Edges {
		if back[e.ID] {
			nback++
		} else if e.From.ID >= e.To.ID {
			retreating++
		}
	}
	if nback != 1 || retreating != 1 {
		t.Fatalf("fixture has %d back and %d retreating forward edges, want 1 and 1", nback, retreating)
	}
	u := newUpdateRun(t, "irreducible", f, 5)
	_, s0 := freq.Stats()
	v0, w0 := freq.Positions()
	seq := updateSeq(9, 60)
	for i := 0; i+1 < len(seq); i += 2 {
		u.change(seq[i], seq[i+1])
	}
	_, s1 := freq.Stats()
	v1, w1 := freq.Positions()
	// Each step solved twice: the Update and the check's full Compute.
	if solves := s1 - s0; solves != 2*int64(u.steps) {
		t.Fatalf("%d solves for %d steps, want %d", solves, u.steps, 2*u.steps)
	}
	if v1-v0 != w1-w0 {
		t.Fatalf("updates visited %d of %d positions, want full walks", v1-v0, w1-w0)
	}
}

// fuzzFuncs is the function pool FuzzSolverUpdate draws from: every
// corpus function, then the genprog default and deep-loop programs'.
var fuzzFuncs = sync.OnceValue(func() []*ir.Func {
	var fs []*ir.Func
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			panic(err)
		}
		fs = append(fs, p.IR.Funcs...)
	}
	deep, _ := genprog.Preset("deep-loop")
	for _, cfg := range []genprog.Config{genprog.Default(), deep} {
		p, err := vrp.Compile("gen.mini", genprog.Source(cfg))
		if err != nil {
			panic(err)
		}
		fs = append(fs, p.IR.Funcs...)
	}
	return fs
})

// FuzzSolverUpdate fuzzes the incremental solver: fn picks a function of
// the pool, changes is a sequence of (branch, probability code) byte
// pairs (code 0 makes the branch unknown), and after each single-branch
// change Update must equal a full Compute bit for bit and return exactly
// the edges whose bits changed.
func FuzzSolverUpdate(f *testing.F) {
	fs := fuzzFuncs()
	for i := 0; i < len(fs); i += 7 {
		f.Add(uint16(i), updateSeq(uint64(i), 12))
	}
	f.Add(uint16(len(fs)-1), []byte{0, 0, 0, 255, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, fn uint16, changes []byte) {
		fs := fuzzFuncs()
		g := fs[int(fn)%len(fs)]
		u := newUpdateRun(t, "fuzz", g, uint64(fn))
		for i := 0; i+1 < len(changes) && i < 512; i += 2 {
			u.change(changes[i], changes[i+1])
		}
	})
}
