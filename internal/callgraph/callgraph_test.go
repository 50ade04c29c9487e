package callgraph

import (
	"fmt"
	"slices"
	"testing"

	"vrp/internal/ir"
)

// synth builds a program whose functions (in the given order) call the
// named callees; bodies are a single block of calls followed by a return,
// indexed by BuildDefUse as the SSA builder leaves them.
func synth(order []string, calls map[string][]string) *ir.Program {
	p := &ir.Program{ByName: map[string]*ir.Func{}}
	for _, name := range order {
		f := &ir.Func{Name: name}
		b := f.NewBlock()
		f.Entry = b
		for _, callee := range calls[name] {
			r := f.NewReg()
			b.Append(&ir.Instr{Op: ir.OpCall, Dst: r, Callee: callee})
		}
		b.Append(&ir.Instr{Op: ir.OpRet})
		if err := f.BuildDefUse(); err != nil {
			panic(err)
		}
		p.Funcs = append(p.Funcs, f)
		p.ByName[name] = f
	}
	return p
}

func waveOf(g *Graph, name string) int {
	fi := g.Index[g.Prog.ByName[name]]
	scc := g.SCCID[fi]
	for w, ids := range g.Waves {
		for _, id := range ids {
			if id == scc {
				return w
			}
		}
	}
	return -1
}

func TestWavesAndSCCs(t *testing.T) {
	// main → {a, b}; a → c; b → c; c → d ↔ e (mutual recursion); f is
	// unreached; g calls itself.
	p := synth(
		[]string{"main", "a", "b", "c", "d", "e", "f", "g"},
		map[string][]string{
			"main": {"a", "b"},
			"a":    {"c"},
			"b":    {"c", "missing"}, // unknown callee is dropped
			"c":    {"d"},
			"d":    {"e"},
			"e":    {"d"},
			"g":    {"g"},
		})
	g := Build(p)

	if len(g.SCCs) != 7 { // d+e collapse into one SCC
		t.Fatalf("got %d SCCs, want 7", len(g.SCCs))
	}
	// d and e share an SCC; it must be marked recursive, as must g.
	di, ei := g.Index[p.ByName["d"]], g.Index[p.ByName["e"]]
	if g.SCCID[di] != g.SCCID[ei] {
		t.Errorf("d and e in different SCCs")
	}
	if !g.Recursive(g.SCCID[di]) {
		t.Errorf("d/e SCC not marked recursive")
	}
	if !g.Recursive(g.SCCID[g.Index[p.ByName["g"]]]) {
		t.Errorf("self-loop g not marked recursive")
	}
	if g.Recursive(g.SCCID[g.Index[p.ByName["a"]]]) {
		t.Errorf("a wrongly marked recursive")
	}

	// Depths: main 0, a/b 1, c 2, d/e 3; f and g have no callers → wave 0.
	wants := map[string]int{"main": 0, "a": 1, "b": 1, "c": 2, "d": 3, "e": 3, "f": 0, "g": 0}
	for name, want := range wants {
		if got := waveOf(g, name); got != want {
			t.Errorf("wave(%s) = %d, want %d", name, got, want)
		}
	}

	// Every call edge between distinct SCCs must cross to a strictly later
	// wave — the property the parallel driver relies on.
	wave := make([]int, len(g.SCCs))
	for w, ids := range g.Waves {
		for _, id := range ids {
			wave[id] = w
		}
	}
	for fi, cs := range g.Callees {
		for _, ci := range cs {
			if g.SCCID[fi] != g.SCCID[ci] && wave[g.SCCID[fi]] >= wave[g.SCCID[ci]] {
				t.Errorf("call %s→%s does not cross to a later wave",
					g.Funcs[fi].Name, g.Funcs[ci].Name)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	order := []string{"main", "x", "y", "z"}
	calls := map[string][]string{"main": {"y", "x"}, "x": {"z"}, "y": {"z"}}
	a := Build(synth(order, calls))
	b := Build(synth(order, calls))
	if fmt.Sprint(a.SCCs, a.Waves, a.SCCID) != fmt.Sprint(b.SCCs, b.Waves, b.SCCID) {
		t.Fatalf("Build not deterministic:\n%v %v %v\n%v %v %v",
			a.SCCs, a.Waves, a.SCCID, b.SCCs, b.Waves, b.SCCID)
	}
}

// TestDeepChain guards the iterative Tarjan: a 10k-deep call chain must not
// overflow the stack, and must produce one wave per function.
func TestDeepChain(t *testing.T) {
	const depth = 10000
	order := make([]string, depth)
	calls := map[string][]string{}
	for i := 0; i < depth; i++ {
		order[i] = fmt.Sprintf("f%d", i)
		if i+1 < depth {
			calls[order[i]] = []string{fmt.Sprintf("f%d", i+1)}
		}
	}
	order[0] = "main"
	calls["main"] = []string{"f1"}
	g := Build(synth(order, calls))
	if len(g.Waves) != depth {
		t.Fatalf("got %d waves, want %d", len(g.Waves), depth)
	}
	for w, ids := range g.Waves {
		if len(ids) != 1 || len(g.SCCs[ids[0]]) != 1 {
			t.Fatalf("wave %d not a singleton", w)
		}
	}
}

// TestCallSites: each function's calls of known callees are grouped by
// callee in Callees order, keep block order within a group, and name
// the caller's position in the callee's Callers list.
func TestCallSites(t *testing.T) {
	p := synth([]string{"main", "a", "b"}, map[string][]string{
		"main": {"b", "a", "missing", "b", "a", "a"},
		"a":    {"b"},
		"b":    {"b"},
	})
	g := Build(p)
	calls := p.ByName["main"].Calls
	want := [][]*ir.Instr{{calls[1], calls[4], calls[5]}, {calls[0], calls[3]}}
	got := g.Sites[g.Index[p.ByName["main"]]]
	if len(got) != len(want) {
		t.Fatalf("main has %d site groups, want %d", len(got), len(want))
	}
	for k := range want {
		if !slices.Equal(got[k].Calls, want[k]) {
			t.Errorf("main's group %d: %d calls, want %d in block order", k, len(got[k].Calls), len(want[k]))
		}
	}
	for fi, sites := range g.Sites {
		if len(sites) != len(g.Callees[fi]) {
			t.Fatalf("%s: %d site groups for %d callees", g.Funcs[fi].Name, len(sites), len(g.Callees[fi]))
		}
		for k, s := range sites {
			if s.Callee != g.Callees[fi][k] || g.Callers[s.Callee][s.Pos] != fi {
				t.Errorf("%s group %d: callee %d at caller position %d, want callee %d naming the caller",
					g.Funcs[fi].Name, k, s.Callee, s.Pos, g.Callees[fi][k])
			}
			for _, in := range s.Calls {
				if in.Callee != g.Funcs[s.Callee].Name {
					t.Errorf("%s group %d holds a call of %s", g.Funcs[fi].Name, k, in.Callee)
				}
			}
		}
	}
}
