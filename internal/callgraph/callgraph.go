// Package callgraph builds the static call graph of an ir.Program, its
// strongly-connected-component condensation, and a topological *wave*
// schedule over the condensation. The analysis driver uses the waves to run
// the §3.7 interprocedural fixpoint in parallel: all SCCs within one wave
// are pairwise call-independent, so their functions can be analyzed
// concurrently — each one's interprocedural inputs (formal-parameter merges
// from callers in earlier waves, return ranges of callees in later waves)
// are never written while the wave runs.
//
// Everything here is deterministic: functions carry dense indices in
// program order, SCC member lists are sorted, SCC ids are assigned in
// schedule order, and every traversal uses an explicit stack so that deep
// call chains cannot overflow the goroutine stack.
package callgraph

import (
	"sort"

	"vrp/internal/ir"
)

// Graph is a program's call graph plus its SCC condensation and wave
// schedule. All slices indexed by "function index" use the dense program
// order of Prog.Funcs; "SCC id" indexes SCCs/Waves numbering assigned in
// schedule order (wave-major, then by smallest member function index).
type Graph struct {
	Prog  *ir.Program
	Funcs []*ir.Func       // function index → function (program order)
	Index map[*ir.Func]int // function → dense index

	// Callees[i] lists the distinct known callees of function i, sorted
	// ascending; calls to names absent from Prog.ByName are dropped.
	Callees [][]int
	// Callers[i] is the inverse adjacency, sorted ascending.
	Callers [][]int
	// Sites[i][k] holds function i's calls of its callee Callees[i][k].
	Sites [][]CallSites

	SCCID []int   // function index → SCC id
	SCCs  [][]int // SCC id → member function indices, sorted ascending

	// Waves groups SCC ids by condensation depth: Waves[0] holds the root
	// SCCs (no callers outside themselves), and every call edge between
	// distinct SCCs goes from an earlier wave to a strictly later one.
	// Within a wave, SCC ids are sorted (= ordered by smallest member).
	Waves [][]int
}

// CallSites is one caller's calls of one callee.
type CallSites struct {
	Callee int         // callee function index
	Pos    int         // the caller's position in Callers[Callee]
	Calls  []*ir.Instr // the call instructions, in block order
}

// Build constructs the call graph, condensation and wave schedule from
// each function's call-site index (ir.Func.Calls). The adjacency and site
// lists of all functions are carved from one array per kind.
func Build(p *ir.Program) *Graph {
	n := len(p.Funcs)
	g := &Graph{
		Prog:    p,
		Funcs:   make([]*ir.Func, n),
		Index:   make(map[*ir.Func]int, n),
		Callees: make([][]int, n),
		Callers: make([][]int, n),
		Sites:   make([][]CallSites, n),
	}
	for i, f := range p.Funcs {
		g.Funcs[i] = f
		g.Index[f] = i
	}
	// Resolve each call site's callee (-1: unknown name) and gather each
	// function's distinct callees, sorted, into one array.
	nsites := 0
	for _, f := range p.Funcs {
		nsites += len(f.Calls)
	}
	target := make([]int, 0, nsites)
	callees := make([]int, 0, nsites)
	start := make([]int, n+1)
	mark := make([]int, n) // callee index → 1 + its latest caller; then its group
	ncallers := make([]int, n)
	known := 0
	for i, f := range p.Funcs {
		start[i] = len(callees)
		for _, in := range f.Calls {
			ci := -1
			if callee := p.ByName[in.Callee]; callee != nil {
				ci = g.Index[callee]
				known++
				if mark[ci] != i+1 {
					mark[ci] = i + 1
					callees = append(callees, ci)
					ncallers[ci]++
				}
			}
			target = append(target, ci)
		}
		sort.Ints(callees[start[i]:])
	}
	start[n] = len(callees)
	callerArr := make([]int, len(callees))
	off := 0
	for ci, k := range ncallers {
		g.Callers[ci] = callerArr[off : off : off+k]
		off += k
	}
	// Callers fill in ascending caller order, so they come out sorted and
	// a caller's position in its callee's list is the list's length when
	// the caller is appended. Each function's sites are grouped by callee
	// with a counting sort, which keeps block order within a group.
	siteArr := make([]CallSites, len(callees))
	callArr := make([]*ir.Instr, known)
	count := ncallers // reused: callee index → calls in the current caller
	clear(count)
	off = 0
	for i, f := range p.Funcs {
		cs := callees[start[i]:start[i+1]:start[i+1]]
		sites := siteArr[start[i]:start[i+1]:start[i+1]]
		targets := target[off : off+len(f.Calls)]
		off += len(f.Calls)
		for _, ci := range targets {
			if ci >= 0 {
				count[ci]++
			}
		}
		for k, ci := range cs {
			mark[ci] = k
			sites[k] = CallSites{Callee: ci, Pos: len(g.Callers[ci]), Calls: callArr[:0:count[ci]]}
			callArr = callArr[count[ci]:]
			count[ci] = 0
			g.Callers[ci] = append(g.Callers[ci], i)
		}
		for j, ci := range targets {
			if ci >= 0 {
				s := &sites[mark[ci]]
				s.Calls = append(s.Calls, f.Calls[j])
			}
		}
		g.Callees[i] = cs
		g.Sites[i] = sites
	}
	g.condense()
	return g
}

// condense runs an iterative Tarjan SCC pass, then assigns each SCC a wave
// (its longest-path depth from the condensation roots) and renumbers SCCs
// in schedule order.
func (g *Graph) condense() {
	n := len(g.Funcs)
	// --- iterative Tarjan ---
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i], comp[i] = unvisited, unvisited
	}
	var (
		stack   []int // Tarjan value stack
		sccs    [][]int
		counter int
	)
	type frame struct {
		v  int
		ei int // next edge to examine in Callees[v]
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			if fr.ei < len(g.Callees[v]) {
				w := g.Callees[v][fr.ei]
				fr.ei++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished: maybe the root of a new SCC.
			if low[v] == index[v] {
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					members = append(members, w)
					if w == v {
						break
					}
				}
				sort.Ints(members)
				sccs = append(sccs, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	// --- wave depths over the condensation ---
	// Tarjan emits SCCs in reverse topological order (callees before their
	// callers), so iterating the emission order backwards visits callers
	// first; one relaxation sweep computes longest-path depth.
	depth := make([]int, len(sccs))
	maxDepth := 0
	for s := len(sccs) - 1; s >= 0; s-- {
		d := depth[s]
		if d > maxDepth {
			maxDepth = d
		}
		for _, v := range sccs[s] {
			for _, w := range g.Callees[v] {
				if t := comp[w]; t != s && depth[t] < d+1 {
					depth[t] = d + 1
				}
			}
		}
	}

	// --- renumber SCCs in schedule order: wave-major, then by smallest
	// member function index (members are sorted, so members[0] is it) ---
	order := make([]int, len(sccs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := order[a], order[b]
		if depth[sa] != depth[sb] {
			return depth[sa] < depth[sb]
		}
		return sccs[sa][0] < sccs[sb][0]
	})
	g.SCCs = make([][]int, len(sccs))
	g.SCCID = make([]int, n)
	g.Waves = make([][]int, maxDepth+1)
	for newID, oldID := range order {
		g.SCCs[newID] = sccs[oldID]
		for _, v := range sccs[oldID] {
			g.SCCID[v] = newID
		}
		d := depth[oldID]
		g.Waves[d] = append(g.Waves[d], newID)
	}
}

// Recursive reports whether the SCC is cyclic: more than one member, or a
// single member that calls itself.
func (g *Graph) Recursive(scc int) bool {
	ms := g.SCCs[scc]
	if len(ms) > 1 {
		return true
	}
	v := ms[0]
	for _, w := range g.Callees[v] {
		if w == v {
			return true
		}
	}
	return false
}

// NumFuncs returns the number of functions in the graph.
func (g *Graph) NumFuncs() int { return len(g.Funcs) }
