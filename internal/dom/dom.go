// Package dom computes dominator trees, dominance frontiers, postdominator
// trees and natural-loop structure over the ir control flow graph.
//
// Dominators use the Cooper–Harvey–Kennedy iterative algorithm over a
// reverse postorder numbering, which is near-linear on reducible flow
// graphs and simple enough to audit. Dominance frontiers follow
// Cytron et al. (TOPLAS 1991), the paper's reference for SSA construction.
package dom

import (
	"vrp/internal/ir"
)

// Tree is a dominator tree over a function whose blocks are numbered
// densely in reverse postorder (ir.Func.Renumber guarantees this).
type Tree struct {
	fn *ir.Func

	idom     []int   // immediate dominator by block ID; entry and unreachable: -1
	children [][]int // dominator tree children
	frontier [][]int // dominance frontier sets (sorted block IDs)
	rpoNum   []int   // reverse postorder number per block ID
}

// New computes the dominator tree and dominance frontiers of f.
func New(f *ir.Func) *Tree {
	n := len(f.Blocks)
	t := &Tree{
		fn:       f,
		idom:     make([]int, n),
		children: make([][]int, n),
		frontier: make([][]int, n),
		rpoNum:   make([]int, n),
	}
	for i := range t.idom {
		t.idom[i] = -1
	}
	// Blocks are already in reverse postorder after Renumber.
	for i := range f.Blocks {
		t.rpoNum[f.Blocks[i].ID] = i
	}

	entry := f.Entry.ID
	t.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b.ID == entry {
				continue
			}
			newIdom := -1
			for _, e := range b.Preds {
				p := e.From.ID
				if t.idom[p] == -1 {
					continue // unprocessed this round
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	t.idom[entry] = -1 // conventional: entry has no idom

	// Children in block ID order, each list carved from one array.
	scratch := make([]int32, 2*n)
	count, last := scratch[:n], scratch[n:]
	total := 0
	for _, d := range t.idom {
		if d >= 0 {
			count[d]++
			total++
		}
	}
	kids := make([]int, total)
	for d, k := range count {
		t.children[d], kids = kids[:0:k], kids[k:]
	}
	for id, d := range t.idom {
		if d >= 0 {
			t.children[d] = append(t.children[d], id)
		}
	}

	// Dominance frontiers (Cytron et al. figure 10), in the order the walk
	// first reaches them: counted in a first walk, filled in a second, all
	// carved from one array.
	clear(count)
	total = t.walkFrontiers(last, func(runner, b int) { count[runner]++ })
	front := make([]int, total)
	for id, k := range count {
		t.frontier[id], front = front[:0:k], front[k:]
	}
	clear(last)
	t.walkFrontiers(last, func(runner, b int) { t.frontier[runner] = append(t.frontier[runner], b) })
	return t
}

// walkFrontiers calls add(runner, b) once for each block b in the
// dominance frontier of block runner, and returns the number of calls.
// last must be zero and have one entry per block; it records, per
// runner, the ID+1 of the last b added.
func (t *Tree) walkFrontiers(last []int32, add func(runner, b int)) int {
	calls := 0
	for _, b := range t.fn.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, e := range b.Preds {
			runner := e.From.ID
			for runner != -1 && runner != t.idom[b.ID] {
				if last[runner] != int32(b.ID+1) {
					last[runner] = int32(b.ID + 1)
					add(runner, b.ID)
					calls++
				}
				runner = t.idom[runner]
			}
		}
	}
	return calls
}

func (t *Tree) intersect(a, b int) int {
	for a != b {
		for t.rpoNum[a] > t.rpoNum[b] {
			a = t.idom[a]
		}
		for t.rpoNum[b] > t.rpoNum[a] {
			b = t.idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator block ID of b, or -1 for the entry.
func (t *Tree) Idom(b int) int { return t.idom[b] }

// Children returns the dominator-tree children of b.
func (t *Tree) Children(b int) []int { return t.children[b] }

// Frontier returns the dominance frontier of b.
func (t *Tree) Frontier(b int) []int { return t.frontier[b] }

// Dominates reports whether a dominates b (reflexively).
func (t *Tree) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.idom[b]
	}
	return false
}

// ------------------------------------------------------------------ loops

// Loop is a natural loop: the header plus the set of blocks that reach a
// back edge source without leaving through the header.
type Loop struct {
	Header   *ir.Block
	Parent   *Loop
	Depth    int          // 1 for outermost
	Blocks   map[int]bool // block IDs in the loop (header included)
	BackEdge []*ir.Edge   // latch→header edges
	Exits    []*ir.Edge   // edges leaving the loop
}

// Contains reports whether block id belongs to the loop.
func (l *Loop) Contains(id int) bool { return l.Blocks[id] }

// LoopInfo holds the loop nest of a function.
type LoopInfo struct {
	Loops   []*Loop
	byBlock []*Loop // innermost loop per block ID, nil if none
}

// InnermostLoop returns the innermost loop containing block id, or nil.
func (li *LoopInfo) InnermostLoop(id int) *Loop {
	if id < 0 || id >= len(li.byBlock) {
		return nil
	}
	return li.byBlock[id]
}

// Depth returns the loop nesting depth of block id (0 outside all loops).
func (li *LoopInfo) Depth(id int) int {
	if l := li.InnermostLoop(id); l != nil {
		return l.Depth
	}
	return 0
}

// IsBackEdge reports whether e is a back edge of some natural loop.
func (li *LoopInfo) IsBackEdge(e *ir.Edge) bool {
	for _, l := range li.Loops {
		for _, be := range l.BackEdge {
			if be == e {
				return true
			}
		}
	}
	return false
}

// FindLoops detects natural loops using the dominator tree: an edge a→h is
// a back edge iff h dominates a; its loop body is found by backward
// traversal from a.
func FindLoops(f *ir.Func, t *Tree) *LoopInfo {
	li := &LoopInfo{byBlock: make([]*Loop, len(f.Blocks))}
	byHeader := map[int]*Loop{}

	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			h := e.To
			if !t.Dominates(h.ID, b.ID) {
				continue
			}
			l := byHeader[h.ID]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[int]bool{h.ID: true}}
				byHeader[h.ID] = l
				li.Loops = append(li.Loops, l)
			}
			l.BackEdge = append(l.BackEdge, e)
			// Backward walk from the latch.
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x.ID] {
					continue
				}
				l.Blocks[x.ID] = true
				for _, pe := range x.Preds {
					stack = append(stack, pe.From)
				}
			}
		}
	}

	// Nesting: loop A is inside loop B if A's header is in B's blocks and
	// A != B. Compute depth by counting enclosing loops; innermost loop per
	// block is the smallest containing loop.
	for _, l := range li.Loops {
		for _, outer := range li.Loops {
			if outer == l || !outer.Blocks[l.Header.ID] {
				continue
			}
			if l.Parent == nil || len(outer.Blocks) < len(l.Parent.Blocks) {
				l.Parent = outer
			}
		}
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	for _, l := range li.Loops {
		for id := range l.Blocks {
			cur := li.byBlock[id]
			if cur == nil || len(l.Blocks) < len(cur.Blocks) {
				li.byBlock[id] = l
			}
		}
	}
	// Exit edges.
	for _, l := range li.Loops {
		for id := range l.Blocks {
			for _, e := range f.Blocks[id].Succs {
				if !l.Blocks[e.To.ID] {
					l.Exits = append(l.Exits, e)
				}
			}
		}
	}
	return li
}

// BackEdges returns every back edge of f (targets dominate sources). The
// paper identifies these with a depth-first traversal from the start node;
// the dominator criterion is equivalent on the reducible graphs irgen
// produces.
func BackEdges(f *ir.Func, t *Tree) map[*ir.Edge]bool {
	m := map[*ir.Edge]bool{}
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			if t.Dominates(e.To.ID, b.ID) {
				m[e] = true
			}
		}
	}
	return m
}

// ---------------------------------------------------------- postdominance

// PostTree is a postdominator tree, computed on the reversed CFG with a
// virtual exit joining every OpRet block.
type PostTree struct {
	ipdom []int // immediate postdominator by block ID; -1 = virtual exit / none
}

// NewPost computes postdominators of f with the iterative algorithm on
// the reversed CFG, using a virtual exit that joins every return block
// (and any block with no path to a return, conservatively).
func NewPost(f *ir.Func) *PostTree {
	n := len(f.Blocks)
	const exit = -2 // virtual exit marker during computation
	ipdom := make([]int, n)
	for i := range ipdom {
		ipdom[i] = -1 // unset
	}

	// Postorder of the reversed graph, rooted at the return blocks.
	var order []int
	seen := make([]bool, n)
	var rets []*ir.Block
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			rets = append(rets, b)
		}
	}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		seen[b.ID] = true
		for _, e := range b.Preds {
			if !seen[e.From.ID] {
				visit(e.From)
			}
		}
		order = append(order, b.ID)
	}
	for _, r := range rets {
		if !seen[r.ID] {
			visit(r)
		}
	}
	num := make([]int, n)
	for i := range num {
		num[i] = -1
	}
	for i, id := range order {
		num[id] = i
	}
	// The virtual exit is the root: number it above everything.
	numOf := func(x int) int {
		if x == exit {
			return n + 1
		}
		if x < 0 {
			return -1
		}
		return num[x]
	}
	up := func(x int) int {
		if x == exit {
			return exit
		}
		v := ipdom[x]
		if v == -1 {
			return exit // unset: conservatively the root
		}
		return v
	}
	intersect := func(a, b int) int {
		for steps := 0; a != b; steps++ {
			if steps > 4*n+8 {
				return exit
			}
			for a != exit && numOf(a) < numOf(b) {
				a = up(a)
			}
			for b != exit && numOf(b) < numOf(a) {
				b = up(b)
			}
			if a == exit && b == exit {
				return exit
			}
			if a == exit || b == exit {
				// One side reached the root; the other must climb to it.
				if numOf(a) == numOf(b) && a != b {
					return exit
				}
			}
		}
		return a
	}

	processed := make([]bool, n)
	for _, r := range rets {
		ipdom[r.ID] = exit
		processed[r.ID] = true
	}
	for changed := true; changed; {
		changed = false
		// Reverse postorder of the reversed graph: closest-to-exit first.
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			b := f.Blocks[id]
			if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
				continue
			}
			newIp := -1
			first := true
			for _, e := range b.Succs {
				s := e.To.ID
				if !processed[s] {
					continue
				}
				if first {
					newIp = s
					first = false
				} else {
					newIp = intersect(s, newIp)
				}
			}
			if !first && ipdom[id] != newIp {
				ipdom[id] = newIp
				processed[id] = true
				changed = true
			}
		}
	}
	// Normalise: the exit marker becomes -1 ("postdominated only by the
	// virtual exit"), as does any block with no path to a return.
	out := make([]int, n)
	for i, v := range ipdom {
		if v == exit {
			out[i] = -1
		} else {
			out[i] = v
		}
	}
	return &PostTree{ipdom: out}
}

// Ipdom returns the immediate postdominator of b, or -1 if it is the
// virtual exit.
func (t *PostTree) Ipdom(b int) int { return t.ipdom[b] }

// PostDominates reports whether a postdominates b (reflexively).
func (t *PostTree) PostDominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.ipdom[b]
	}
	return false
}
