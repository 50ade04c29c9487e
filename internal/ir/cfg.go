package ir

import (
	"fmt"
	"sort"
	"strings"
)

// AddEdge creates and registers an edge from→to with the given kind,
// appending it to from.Succs, to.Preds and f.Edges.
func (f *Func) AddEdge(from, to *Block, kind EdgeKind) *Edge {
	e := &Edge{ID: len(f.Edges), From: from, To: to, Kind: kind}
	f.Edges = append(f.Edges, e)
	if from.Succs == nil && kind == EdgeTrue {
		from.Succs = make([]*Edge, 0, 2) // room for the false edge
	}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
	return e
}

// NewBlock creates a block and appends it to f.Blocks. IDs are provisional
// until Renumber.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Append adds an instruction to the end of b, recording ownership.
func (b *Block) Append(in *Instr) *Instr {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// SplitCriticalEdges inserts an empty jump block on every edge whose source
// has multiple successors and whose target has multiple predecessors. With
// critical edges split, each successor of a conditional branch has exactly
// one predecessor, so edge assertions can be placed at the head of the
// successor block. The Edge objects are preserved for the first half of
// each split (From→mid), so edge identities used by earlier passes remain
// meaningful; the new mid→To edges are appended.
func (f *Func) SplitCriticalEdges() {
	// Collect first: we mutate the block list while iterating.
	var critical []*Edge
	for _, e := range f.Edges {
		if len(e.From.Succs) > 1 && len(e.To.Preds) > 1 {
			critical = append(critical, e)
		}
	}
	for _, e := range critical {
		mid := f.NewBlock()
		to := e.To
		// Redirect e to mid.
		e.To = mid
		mid.Preds = append(mid.Preds, e)
		// Replace e in to.Preds with the new mid→to edge, preserving the
		// predecessor position so φ argument order stays consistent.
		ne := &Edge{ID: len(f.Edges), From: mid, To: to, Kind: EdgeJump}
		f.Edges = append(f.Edges, ne)
		mid.Succs = append(mid.Succs, ne)
		for i, pe := range to.Preds {
			if pe == e {
				to.Preds[i] = ne
				break
			}
		}
		mid.Append(&Instr{Op: OpJmp})
	}
}

// reachable returns the blocks reachable from the entry in reverse
// postorder, and a reachability flag per block ID. Block IDs index
// f.Blocks, as NewBlock, Renumber and Clone keep them.
func (f *Func) reachable() ([]*Block, []bool) {
	seen := make([]bool, len(f.Blocks))
	post := make([]*Block, 0, len(f.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b.ID] = true
		for _, e := range b.Succs {
			if !seen[e.To.ID] {
				visit(e.To)
			}
		}
		post = append(post, b)
	}
	visit(f.Entry)
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post, seen
}

// Renumber removes unreachable blocks, orders the rest in reverse
// postorder, renumbers block and edge IDs densely, and drops edges from
// removed blocks.
func (f *Func) Renumber() {
	rpo, reach := f.reachable() // reach is by the old block IDs
	// Remove predecessor edges originating in unreachable blocks. (φs do
	// not exist yet when this runs during construction; after SSA, callers
	// must not remove blocks.)
	for _, b := range rpo {
		kept := b.Preds[:0]
		for _, e := range b.Preds {
			if reach[e.From.ID] {
				kept = append(kept, e)
			}
		}
		b.Preds = kept
	}
	f.Blocks = rpo
	for i, b := range f.Blocks {
		b.ID = i
	}
	// The kept edges are a subset of f.Edges: renumber them in its array,
	// and clear the tail so dropped edges are not kept alive.
	edges := f.Edges[:0]
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			e.ID = len(edges)
			edges = append(edges, e)
		}
	}
	clear(f.Edges[min(len(edges), len(f.Edges)):])
	f.Edges = edges
}

// BuildDefUse populates f.Defs, f.Uses, f.Calls, f.Rets and f.Branches from
// the instruction stream. It requires (and checks) the single-assignment
// property; it is called by ssaform.Build and may be re-invoked after IR
// surgery.
func (f *Func) BuildDefUse() error {
	f.Defs = make([]*Instr, f.NumRegs)
	f.Uses = make([][]*Instr, f.NumRegs)
	// Count each register's uses and the calls first, then carve every
	// use list from one array sized to the total.
	uses := make([]int32, f.NumRegs)
	total, calls, rets, brs := 0, 0, 0, 0
	var buf []Reg
	idx := 0
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			switch t.Op {
			case OpRet:
				rets++
			case OpBr:
				brs++
			}
		}
		for _, in := range b.Instrs {
			in.Idx = idx
			idx++
			if in.Op == OpCall {
				calls++
			}
			if in.Defines() {
				if f.Defs[in.Dst] != nil {
					return fmt.Errorf("ir: register r%d defined twice (%s and %s)", in.Dst, f.Defs[in.Dst], in)
				}
				f.Defs[in.Dst] = in
			}
			buf = in.UseRegs(buf[:0])
			for _, r := range buf {
				uses[r]++
			}
			total += len(buf)
		}
	}
	all := make([]*Instr, total)
	off := 0
	for r, n := range uses {
		if n > 0 {
			f.Uses[r] = all[off : off : off+int(n)] // full capacity: an append copies out
			off += int(n)
		}
	}
	sites := make([]*Instr, 0, calls+rets+brs)
	f.Calls, f.Rets, f.Branches = sites[:0:calls], sites[calls:calls:calls+rets], sites[calls+rets:calls+rets]
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil {
			switch t.Op {
			case OpRet:
				f.Rets = append(f.Rets, t)
			case OpBr:
				f.Branches = append(f.Branches, t)
			}
		}
		for _, in := range b.Instrs {
			if in.Op == OpCall {
				f.Calls = append(f.Calls, in)
			}
			buf = in.UseRegs(buf[:0])
			for _, r := range buf {
				f.Uses[r] = append(f.Uses[r], in)
			}
		}
	}
	return nil
}

// Verify checks structural invariants: every block is terminated, edge
// symmetry holds, φ argument counts match predecessor counts, and (in SSA
// mode) each register has one definition that dominates... (dominance is
// checked by the dom package; here we check counts only).
func (f *Func) Verify() error {
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("ir: %s block b%d lacks a terminator", f.Name, b.ID)
		}
		switch t.Op {
		case OpBr:
			if len(b.Succs) != 2 {
				return fmt.Errorf("ir: %s b%d: br with %d successors", f.Name, b.ID, len(b.Succs))
			}
			if b.Succs[0].Kind != EdgeTrue || b.Succs[1].Kind != EdgeFalse {
				return fmt.Errorf("ir: %s b%d: br successor kinds %s/%s", f.Name, b.ID, b.Succs[0].Kind, b.Succs[1].Kind)
			}
		case OpJmp:
			if len(b.Succs) != 1 {
				return fmt.Errorf("ir: %s b%d: jmp with %d successors", f.Name, b.ID, len(b.Succs))
			}
		case OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("ir: %s b%d: ret with successors", f.Name, b.ID)
			}
		}
		for i, in := range b.Instrs {
			if in.Block != b {
				return fmt.Errorf("ir: %s b%d instr %d has wrong owner", f.Name, b.ID, i)
			}
			if in.Op == OpPhi && len(in.Args) != len(b.Preds) {
				return fmt.Errorf("ir: %s b%d: φ %s has %d args for %d preds", f.Name, b.ID, in, len(in.Args), len(b.Preds))
			}
			if in.Op == OpBr || in.Op == OpJmp || in.Op == OpRet {
				if i != len(b.Instrs)-1 {
					return fmt.Errorf("ir: %s b%d: terminator %s not last", f.Name, b.ID, in)
				}
			}
		}
		for _, e := range b.Succs {
			if e.From != b {
				return fmt.Errorf("ir: %s b%d: succ edge %s with wrong From", f.Name, b.ID, e)
			}
			if e.To.PredIndex(e) < 0 {
				return fmt.Errorf("ir: %s b%d: succ edge %s missing from target preds", f.Name, b.ID, e)
			}
		}
		for _, e := range b.Preds {
			if e.To != b {
				return fmt.Errorf("ir: %s b%d: pred edge %s with wrong To", f.Name, b.ID, e)
			}
		}
	}
	if f.SSA {
		if err := f.checkSingleAssignment(); err != nil {
			return err
		}
	}
	return nil
}

func (f *Func) checkSingleAssignment() error {
	defined := make([]uint64, (f.NumRegs+63)/64) // one bit per register
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Defines() {
				w, bit := in.Dst/64, uint64(1)<<(in.Dst%64)
				if defined[w]&bit != 0 {
					return fmt.Errorf("ir: %s: SSA register r%d multiply defined", f.Name, in.Dst)
				}
				defined[w] |= bit
			}
		}
	}
	return nil
}

// String renders the function as readable text, stable across runs.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s:\n", f.Name)
	for _, blk := range f.Blocks {
		preds := make([]int, 0, len(blk.Preds))
		for _, e := range blk.Preds {
			preds = append(preds, e.From.ID)
		}
		sort.Ints(preds)
		fmt.Fprintf(&b, "b%d:", blk.ID)
		if len(preds) > 0 {
			fmt.Fprintf(&b, " ; preds %v", preds)
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
		for _, e := range blk.Succs {
			fmt.Fprintf(&b, "\t-> b%d (%s)\n", e.To.ID, e.Kind)
		}
	}
	return b.String()
}

// String renders all functions.
func (p *Program) String() string {
	var b strings.Builder
	for i, f := range p.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}
