package ssaform_test

import (
	"slices"
	"testing"

	"vrp/internal/apps"
	"vrp/internal/ir"
	"vrp/internal/ssaform"
	"vrp/internal/unitcache"
	corevrp "vrp/internal/vrp"
)

// checkCalls reports every function of p whose call-site index differs
// from a fresh block-order walk of its OpCall instructions, or whose
// return-site or branch index differs from a fresh walk of its blocks'
// OpRet or OpBr terminators.
func checkCalls(t *testing.T, what string, p *ir.Program) {
	t.Helper()
	for _, f := range p.Funcs {
		var want, rets, brs []*ir.Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					want = append(want, in)
				}
			}
			if term := b.Terminator(); term != nil {
				switch term.Op {
				case ir.OpRet:
					rets = append(rets, term)
				case ir.OpBr:
					brs = append(brs, term)
				}
			}
		}
		if !slices.Equal(f.Calls, want) {
			t.Errorf("%s: %s.Calls lists %d calls, its blocks hold %d (or in another order)",
				what, f.Name, len(f.Calls), len(want))
		}
		if !slices.Equal(f.Rets, rets) {
			t.Errorf("%s: %s.Rets lists %d returns, its blocks end in %d (or in another order)",
				what, f.Name, len(f.Rets), len(rets))
		}
		if !slices.Equal(f.Branches, brs) {
			t.Errorf("%s: %s.Branches lists %d branches, its blocks end in %d (or in another order)",
				what, f.Name, len(f.Branches), len(brs))
		}
	}
}

// TestCallsMatchInstrs: ir.Func.Calls lists exactly the function's calls,
// ir.Func.Rets its return terminators and ir.Func.Branches its
// conditional-branch terminators, in block order wherever the
// SSA metadata is refreshed — after a whole
// compile of every program of the IR stability gate, after procedure
// cloning, after the VRP optimizer's rewrites, and for functions a
// compile cache compiles or serves from its store.
func TestCallsMatchInstrs(t *testing.T) {
	names, srcs := ssaform.FingerprintPrograms()
	for i, src := range srcs {
		checkCalls(t, names[i], compileWhole(t, src, ssaform.Options{}))

		cloned := compileWhole(t, src, ssaform.Options{})
		corevrp.CloneProcedures(cloned, corevrp.DefaultCloneOptions())
		checkCalls(t, names[i]+" cloned", cloned)

		optimized := compileWhole(t, src, ssaform.Options{})
		res, err := corevrp.Analyze(optimized, corevrp.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		apps.Optimize(res)
		checkCalls(t, names[i]+" optimized", optimized)

		c := unitcache.New()
		for _, v := range []struct{ name, src string }{
			{"cache-compiled", src},
			{"from the cache", "// an edit above\n" + src},
		} {
			p := c.Compile("t.mini", v.src, false, nil, -1)
			if p == nil {
				t.Fatalf("%s %s: cache compile failed", names[i], v.name)
			}
			checkCalls(t, names[i]+" "+v.name, p)
		}
	}
}
