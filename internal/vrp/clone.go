package vrp

import (
	"fmt"
	"sort"
	"strings"

	"vrp/internal/ir"
)

// Procedure cloning (§3.7): "duplicating a critical procedure which is
// not inlined but which is called in two (or more) significantly
// different contexts so that each copy may be optimized in a different
// way. ... Since the calling context has a large impact on the branching
// behavior, this leads to substantially more accurate predictions."
//
// Call sites are grouped by context signature — the tuple of
// syntactically constant actuals (constants reached through copy chains).
// A function called from at least two groups, where at least one group
// pins an argument to a constant, is cloned per group and the call sites
// are retargeted. The transformation runs before analysis and
// interpretation alike, so every downstream consumer sees the same
// program.

// CloneOptions bounds the transformation.
type CloneOptions struct {
	// MaxClonesPerFunc bounds the groups cloned for one function.
	MaxClonesPerFunc int
	// MaxFuncInstrs skips functions too large to duplicate profitably.
	MaxFuncInstrs int
}

// DefaultCloneOptions mirrors a conservative compiler setting.
func DefaultCloneOptions() CloneOptions {
	return CloneOptions{MaxClonesPerFunc: 4, MaxFuncInstrs: 400}
}

// CloneReport describes what CloneProcedures did.
type CloneReport struct {
	// Clones maps an original function name to its clone names.
	Clones map[string][]string
	// RetargetedCalls counts rewritten call sites.
	RetargetedCalls int
}

// CloneProcedures transforms the program in place, duplicating functions
// whose call sites disagree on constant arguments.
func CloneProcedures(p *ir.Program, opts CloneOptions) *CloneReport {
	if opts.MaxClonesPerFunc <= 0 {
		opts.MaxClonesPerFunc = 4
	}
	if opts.MaxFuncInstrs <= 0 {
		opts.MaxFuncInstrs = 400
	}
	rep := &CloneReport{Clones: map[string][]string{}}

	// Gather call sites per callee.
	type site struct {
		caller *ir.Func
		in     *ir.Instr
		sig    string
		pinned bool // at least one constant actual
	}
	sites := map[string][]*site{}
	for _, f := range p.Funcs {
		for _, in := range f.Calls {
			s := &site{caller: f, in: in}
			s.sig, s.pinned = callSignature(f, in)
			sites[in.Callee] = append(sites[in.Callee], s)
		}
	}

	// Deterministic function order.
	names := make([]string, 0, len(sites))
	for n := range sites {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		callee := p.ByName[name]
		if callee == nil || callee.Name == "main" {
			continue
		}
		if callee.NumInstrs() > opts.MaxFuncInstrs {
			continue
		}
		ss := sites[name]
		groups := map[string][]*site{}
		for _, s := range ss {
			groups[s.sig] = append(groups[s.sig], s)
		}
		if len(groups) < 2 {
			continue // a single context: specialisation buys nothing
		}
		// Only clone for groups that pin at least one argument.
		sigs := make([]string, 0, len(groups))
		for sig, g := range groups {
			if g[0].pinned {
				sigs = append(sigs, sig)
			}
		}
		sort.Strings(sigs)
		if len(sigs) > opts.MaxClonesPerFunc {
			sigs = sigs[:opts.MaxClonesPerFunc]
		}
		// The first pinned group keeps the original function; the rest
		// get clones. (Unpinned groups keep calling the original.)
		for i, sig := range sigs {
			if i == 0 {
				continue
			}
			cloneName := fmt.Sprintf("%s$clone%d", name, i)
			nf := callee.Clone(cloneName)
			p.Funcs = append(p.Funcs, nf)
			p.ByName[cloneName] = nf
			rep.Clones[name] = append(rep.Clones[name], cloneName)
			for _, s := range groups[sig] {
				s.in.Callee = cloneName
				rep.RetargetedCalls++
			}
		}
	}
	return rep
}

// callSignature renders the constant shape of a call's actuals:
// "k=5,_,k=16" for f(5, x, 16).
func callSignature(f *ir.Func, call *ir.Instr) (string, bool) {
	var parts []string
	pinned := false
	for _, a := range call.Args {
		if c, ok := constReg(f, a); ok {
			parts = append(parts, fmt.Sprintf("k=%d", c))
			pinned = true
		} else {
			parts = append(parts, "_")
		}
	}
	return strings.Join(parts, ","), pinned
}

// constReg resolves a register to a syntactic constant through copy and
// assertion chains.
func constReg(f *ir.Func, r ir.Reg) (int64, bool) {
	for i := 0; i < 64; i++ {
		d := f.Defs[r]
		if d == nil {
			return 0, false
		}
		switch d.Op {
		case ir.OpConst:
			return d.Const, true
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		default:
			return 0, false
		}
	}
	return 0, false
}
