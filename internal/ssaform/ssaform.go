// Package ssaform rewrites an ir.Func in place into SSA form with
// assertion (π) instructions, following the construction the paper builds
// on (Cytron et al. 1991):
//
//  1. assertion insertion — on both out-edges of every conditional branch,
//     π-instructions re-define the branch's controlling variables with the
//     relation the edge implies (`x = assert(x < 10)` on the true edge of
//     `x < 10`, the negation on the false edge);
//  2. φ insertion at iterated dominance frontiers of definition sites,
//     pruned by block-level liveness;
//  3. renaming by dominator-tree walk, producing a unique definition per
//     register.
//
// Assertions are what give value range propagation its precision at
// branches: "valuable information can often be derived from the equality
// tests controlling branches" (paper §3.8, figure 3).
//
// Construction allocates in proportion to the IR it builds: its working
// state is dense arrays indexed by register or block ID, kept across the
// functions of a program, and every list it hands the IR (a block's
// instructions, φ arguments, versioned names) is allocated once at its
// final size.
package ssaform

import (
	"fmt"
	"strconv"
	"strings"

	"vrp/internal/dom"
	"vrp/internal/ir"
)

// Options controls SSA construction features.
type Options struct {
	// NoAssertions disables π-insertion (for the ablation benchmarks).
	NoAssertions bool
}

// Build converts every function of p into SSA form.
func Build(p *ir.Program) error { return BuildWith(p, Options{}) }

// BuildWith converts every function of p into SSA form with options.
func BuildWith(p *ir.Program, opts Options) error {
	b := &builder{}
	for _, f := range p.Funcs {
		if err := b.buildFunc(f, opts); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) buildFunc(f *ir.Func, opts Options) error {
	if f.SSA {
		return fmt.Errorf("ssaform: %s already in SSA form", f.Name)
	}
	b.f, b.undefReg = f, 0
	b.countDefs()
	if !opts.NoAssertions {
		b.insertAssertions()
	}
	b.tree = dom.New(f)
	b.liveness()
	b.insertPhis()
	b.rename()
	f.SSA = true
	if err := f.BuildDefUse(); err != nil {
		return err
	}
	return f.Verify()
}

// builder converts one function at a time. Registers and blocks are
// small dense integers, so all of its state is slice-indexed (maps here
// cost a hash per instruction operand on a path that runs once per
// instruction of every function), and every array is reused, cleared,
// by the next function (see resize).
type builder struct {
	f    *ir.Func
	tree *dom.Tree

	// defCount is the number of definitions of each pre-SSA register;
	// insertAssertions and insertPhis add theirs, so renaming sees every
	// definition counted. singleDef is the unique defining instruction
	// (nil if 0 or >1 defs) before assertions; only they consult it.
	// baseName is each pre-SSA register's source name ("" if none).
	defCount  []int32
	singleDef []*ir.Instr
	baseName  []string

	live   []uint64 // backing of the liveness bit matrices
	liveIn bitmat   // block ID × register: live-in bits
	regs   []ir.Reg // UseRegs buffer

	// φ placement and splicing scratch.
	siteIdx []int32     // per register: start of its def sites, end, last site
	sites   []int32     // def-site block IDs, carved per register
	hasPhi  []ir.Reg    // block ID → the register last given a φ there
	work    []int32     // φ-placement worklist
	batch   []*ir.Instr // new asserts or φs, in creation order
	perBlk  []int32     // prependAll's per-block counts

	// Renaming state. Each original register's stack of SSA names is a
	// linked list through shadow: top holds its head, and popping an SSA
	// name restores the name it shadowed.
	top      []ir.Reg // original register → current SSA name (0 = none yet)
	shadow   []ir.Reg // SSA register → the name it shadowed on its stack
	origOf   []ir.Reg // SSA register → original register (0 = none)
	version  []int32  // original register → next version number
	pushed   []ir.Reg // SSA names defined on the current dominator-tree path
	undefReg ir.Reg   // lazily created zero-constant, 0 until first use

	// names holds every versioned name "x.N" back to back, and nameAt
	// is each original register's offset of its next version in it, so
	// naming an SSA register slices a string instead of building one.
	names  string
	nameAt []int32
}

// resize returns s with length n and every element zero, reusing its
// array when that is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitmat is a dense rows × NumRegs bit matrix (one row per block).
type bitmat struct {
	words int
	bits  []uint64
}

func (m bitmat) row(i int) []uint64 { return m.bits[i*m.words : (i+1)*m.words] }

func (m bitmat) get(i int, r ir.Reg) bool {
	return m.bits[i*m.words+int(r)>>6]&(1<<(uint(r)&63)) != 0
}

func (m bitmat) set(i int, r ir.Reg) {
	m.bits[i*m.words+int(r)>>6] |= 1 << (uint(r) & 63)
}

// countDefs counts each register's definitions, records the single ones
// and looks up each register's source name.
func (b *builder) countDefs() {
	n := b.f.NumRegs
	b.defCount = resize(b.defCount, n)
	b.singleDef = resize(b.singleDef, n)
	b.baseName = resize(b.baseName, n)
	for r, name := range b.f.Names {
		if int(r) < n {
			b.baseName[r] = name
		}
	}
	for _, blk := range b.f.Blocks {
		for _, in := range blk.Instrs {
			if in.Defines() {
				b.defCount[in.Dst]++
				if b.defCount[in.Dst] == 1 {
					b.singleDef[in.Dst] = in
				} else {
					b.singleDef[in.Dst] = nil
				}
			}
		}
	}
}

// resolveRoot follows single-definition copy chains to the register that
// actually carries the value. The chase stops at named (source-variable)
// registers: asserting the variable itself lets every later use of the
// variable see the π-refinement, whereas asserting a deeper temporary
// would refine a value no one reads again.
func (b *builder) resolveRoot(r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ { // cycle guard; copy chains are short
		if b.baseName[r] != "" {
			return r
		}
		d := b.singleDef[r]
		if d == nil || d.Op != ir.OpCopy {
			return r
		}
		r = d.A
	}
	return r
}

// constOf returns (value, true) if r's unique definition is a constant.
func (b *builder) constOf(r ir.Reg) (int64, bool) {
	d := b.singleDef[r]
	if d != nil && d.Op == ir.OpConst {
		return d.Const, true
	}
	return 0, false
}

// assertable reports whether a π-definition of r is useful: r must not be
// a constant or an array reference.
func (b *builder) assertable(r ir.Reg) bool {
	if r == ir.None {
		return false
	}
	d := b.singleDef[r]
	if d != nil && (d.Op == ir.OpConst || d.Op == ir.OpAlloc) {
		return false
	}
	return true
}

// insertAssertions places π-instructions at the head of each conditional
// branch successor. irgen guarantees (by critical edge splitting) that
// both successors of a branch have exactly one predecessor.
func (b *builder) insertAssertions() {
	asserts := b.batch[:0]
	for _, blk := range b.f.Blocks {
		term := blk.Terminator()
		if term == nil || term.Op != ir.OpBr {
			continue
		}
		// Chase the condition through copies and negations.
		cond := term.A
		polarity := true
		for {
			d := b.singleDef[cond]
			if d == nil {
				break
			}
			if d.Op == ir.OpCopy {
				cond = d.A
				continue
			}
			if d.Op == ir.OpNot {
				polarity = !polarity
				cond = d.A
				continue
			}
			break
		}

		trueBlk := blk.Succs[0].To
		falseBlk := blk.Succs[1].To
		if !polarity {
			trueBlk, falseBlk = falseBlk, trueBlk
		}

		d := b.singleDef[cond]
		if d != nil && d.Op == ir.OpBin && d.BinOp.IsComparison() {
			x := b.resolveRoot(d.A)
			y := b.resolveRoot(d.B)
			asserts = b.emitAssertPair(asserts, trueBlk, x, d.BinOp, y)
			asserts = b.emitAssertPair(asserts, falseBlk, x, d.BinOp.Negate(), y)
			continue
		}
		// Non-comparison condition: the only information is zero/non-zero.
		root := b.resolveRoot(cond)
		if b.assertable(root) {
			asserts = append(asserts, newAssert(trueBlk, root, ir.BinNe, ir.None, 0))
			asserts = append(asserts, newAssert(falseBlk, root, ir.BinEq, ir.None, 0))
		}
	}
	for _, in := range asserts {
		b.defCount[in.Dst]++
	}
	b.batch = asserts
	b.prependAll()
}

// emitAssertPair appends assertions of `x rel y` at blk for both
// operands to asserts.
func (b *builder) emitAssertPair(asserts []*ir.Instr, blk *ir.Block, x ir.Reg, rel ir.BinOp, y ir.Reg) []*ir.Instr {
	if b.assertable(x) {
		if c, ok := b.constOf(y); ok {
			asserts = append(asserts, newAssert(blk, x, rel, ir.None, c))
		} else {
			asserts = append(asserts, newAssert(blk, x, rel, y, 0))
		}
	}
	if b.assertable(y) {
		rel = rel.Swap()
		if c, ok := b.constOf(x); ok {
			asserts = append(asserts, newAssert(blk, y, rel, ir.None, c))
		} else {
			asserts = append(asserts, newAssert(blk, y, rel, x, 0))
		}
	}
	return asserts
}

// newAssert returns `x = assert(x rel other)` for the start of blk.
// Pre-SSA the destination is the asserted register itself; renaming later
// versions it and rewires dominated uses automatically.
func newAssert(blk *ir.Block, x ir.Reg, rel ir.BinOp, other ir.Reg, c int64) *ir.Instr {
	return &ir.Instr{Op: ir.OpAssert, Dst: x, A: x, B: other, BinOp: rel, Const: c, Block: blk}
}

// prependAll splices b.batch, listed in creation order, onto the front
// of their blocks (each instruction's Block) exactly as prepending them
// one at a time would: a block's last-created instruction comes first.
// Each touched block's instruction slice is rebuilt once, at its final
// size.
func (b *builder) prependAll() {
	if len(b.batch) == 0 {
		return
	}
	n := resize(b.perBlk, len(b.f.Blocks))
	b.perBlk = n
	for _, in := range b.batch {
		n[in.Block.ID]++
	}
	for id, k := range n {
		if k > 0 {
			blk := b.f.Blocks[id]
			merged := make([]*ir.Instr, int(k)+len(blk.Instrs))
			copy(merged[k:], blk.Instrs)
			blk.Instrs = merged
		}
	}
	for _, in := range b.batch {
		id := in.Block.ID
		n[id]--
		in.Block.Instrs[n[id]] = in
	}
}

// ----------------------------------------------------------------- φ pass

// liveness computes block-level live-in sets with the classic backward
// iteration; used to prune dead φs.
func (b *builder) liveness() {
	n := len(b.f.Blocks)
	w := (b.f.NumRegs + 63) / 64
	b.live = resize(b.live, 4*n*w)
	mat := func(i int) bitmat { return bitmat{words: w, bits: b.live[i*n*w : (i+1)*n*w]} }
	use := mat(0)  // upward-exposed uses
	defs := mat(1) // defined before any later use
	b.liveIn = mat(2)
	liveOut := mat(3)
	for i, blk := range b.f.Blocks {
		for _, in := range blk.Instrs {
			b.regs = in.UseRegs(b.regs[:0])
			for _, r := range b.regs {
				if !defs.get(i, r) {
					use.set(i, r)
				}
			}
			if in.Defines() {
				defs.set(i, in.Dst)
			}
		}
	}
	// liveIn = use ∪ (liveOut − defs), liveOut = ∪ succ liveIn: the
	// classic backward iteration, 64 registers per word.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			blk := b.f.Blocks[i]
			out := liveOut.row(i)
			for _, e := range blk.Succs {
				succ := b.liveIn.row(e.To.ID)
				for w := range out {
					out[w] |= succ[w]
				}
			}
			in, u, d := b.liveIn.row(i), use.row(i), defs.row(i)
			for w := range in {
				nv := in[w] | u[w] | (out[w] &^ d[w])
				if nv != in[w] {
					in[w] = nv
					changed = true
				}
			}
		}
	}
}

// insertPhis places φ instructions at the iterated dominance frontier of
// each multiply-defined register's definition sites (pruned by liveness).
func (b *builder) insertPhis() {
	nb, nr := len(b.f.Blocks), b.f.NumRegs
	// Definition blocks of each multiply-defined register, in block order
	// and without repeats, carved from one array: a register has no more
	// sites than definitions. last[r] is the ID+1 of r's latest site.
	b.siteIdx = resize(b.siteIdx, 3*nr+1)
	start, end, last := b.siteIdx[:nr+1], b.siteIdx[nr+1:2*nr+1], b.siteIdx[2*nr+1:]
	for r, n := range b.defCount {
		if n < 2 {
			n = 0
		}
		start[r+1] = start[r] + n
	}
	b.sites = resize(b.sites, int(start[nr]))
	sites := b.sites
	copy(end, start)
	for _, blk := range b.f.Blocks {
		id := int32(blk.ID)
		for _, in := range blk.Instrs {
			if r := in.Dst; in.Defines() && b.defCount[r] >= 2 && last[r] != id+1 {
				last[r] = id + 1
				sites[end[r]] = id
				end[r]++
			}
		}
	}
	// Process registers in ascending order: φs are prepended to their
	// block, so the iteration order here decides the instruction order of
	// co-located φs — and with it the engine's evaluation order, which
	// must be reproducible run to run. The φs are collected in creation
	// order and spliced in one rebuild per block (prependAll).
	phis := b.batch[:0]
	nargs := 0
	b.hasPhi = resize(b.hasPhi, nb)
	hasPhi, work := b.hasPhi, b.work[:0]
	for r := ir.Reg(1); int(r) < nr; r++ {
		if b.defCount[r] < 2 {
			continue
		}
		work = append(work[:0], sites[start[r]:end[r]]...)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range b.tree.Frontier(int(x)) {
				if hasPhi[y] == r || !b.liveIn.get(y, r) {
					continue
				}
				hasPhi[y] = r
				blk := b.f.Blocks[y]
				phis = append(phis, &ir.Instr{Op: ir.OpPhi, Dst: r, Block: blk})
				nargs += len(blk.Preds)
				b.defCount[r]++
				work = append(work, int32(y))
			}
		}
	}
	// Every φ argument starts as the φ's own register; renaming fills in
	// the reaching names. The argument lists share one array.
	args := make([]ir.Reg, nargs)
	for _, phi := range phis {
		n := len(phi.Block.Preds)
		phi.Args = args[:n:n]
		for i := range phi.Args {
			phi.Args[i] = phi.Dst
		}
		args = args[n:]
	}
	b.work, b.batch = work, phis
	b.prependAll()
}

// ----------------------------------------------------------------- rename

func (b *builder) rename() {
	pre := b.f.NumRegs // every original register is below this
	// Every definition gets a fresh name (plus one zero constant at
	// most), so the per-SSA-register arrays are sized once.
	defs := 0
	for _, n := range b.defCount {
		defs += int(n)
	}
	b.top = resize(b.top, pre)
	b.shadow = resize(b.shadow, pre+defs+1)[:pre]
	b.origOf = resize(b.origOf, pre+defs+1)[:pre] // extended in step with NewReg
	b.version = resize(b.version, pre)
	b.pushed = b.pushed[:0]
	b.nameVersions()
	b.renameBlock(b.f.Entry)
}

// nameVersions lays out the versioned names of every named register
// ("x.0", "x.1", … one per definition) in one string, and gives f.Names
// room for all of them.
func (b *builder) nameVersions() {
	size, n := 0, len(b.f.Names)
	for r, name := range b.baseName {
		if name == "" {
			continue
		}
		k := int(b.defCount[r])
		n += k
		size += k * (len(name) + 1)
		for v := 0; v < k; v++ {
			size += decimalLen(v)
		}
	}
	names := make(map[ir.Reg]string, n)
	for r, name := range b.f.Names {
		names[r] = name
	}
	b.f.Names = names
	var sb strings.Builder
	sb.Grow(size)
	b.nameAt = resize(b.nameAt, len(b.baseName))
	var digits [20]byte
	for r, name := range b.baseName { // register order: deterministic layout
		if name == "" {
			continue
		}
		b.nameAt[r] = int32(sb.Len())
		for v := 0; v < int(b.defCount[r]); v++ {
			sb.WriteString(name)
			sb.WriteByte('.')
			sb.Write(strconv.AppendInt(digits[:0], int64(v), 10))
		}
	}
	b.names = sb.String()
}

// decimalLen is the number of decimal digits of v ≥ 0.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// fresh creates a new SSA name for original register r.
func (b *builder) fresh(r ir.Reg) ir.Reg {
	nr := b.f.NewReg()
	b.origOf = append(b.origOf, r) // NewReg is sequential: index == nr
	b.shadow = append(b.shadow, b.top[r])
	b.top[r] = nr
	v := b.version[r]
	b.version[r] = v + 1
	if name := b.baseName[r]; name != "" {
		at := int(b.nameAt[r])
		end := at + len(name) + 1 + decimalLen(int(v))
		b.f.Names[nr] = b.names[at:end]
		b.nameAt[r] = int32(end)
	}
	return nr
}

// current returns the current SSA name of original register r. A use before
// any definition (possible only for φ operands of variables that were
// lexically dead on that path) maps to the zero-constant register, created
// lazily in the entry block.
func (b *builder) current(r ir.Reg) ir.Reg {
	if t := b.top[r]; t != 0 {
		return t
	}
	return b.undef()
}

func (b *builder) undef() ir.Reg {
	if b.undefReg != 0 {
		return b.undefReg
	}
	r := b.f.NewReg()
	b.origOf = append(b.origOf, 0) // no original register
	b.shadow = append(b.shadow, 0)
	in := &ir.Instr{Op: ir.OpConst, Dst: r, Const: 0, Block: b.f.Entry}
	// Insert at the very beginning of entry so it dominates everything.
	b.f.Entry.Instrs = append([]*ir.Instr{in}, b.f.Entry.Instrs...)
	b.undefReg = r
	return r
}

func (b *builder) renameBlock(blk *ir.Block) {
	mark := len(b.pushed) // SSA names defined in this block are pushed above

	for _, in := range blk.Instrs {
		if in.Op != ir.OpPhi {
			// Rewrite uses first.
			switch in.Op {
			case ir.OpBin, ir.OpStore:
				in.A = b.current(in.A)
				if in.B != ir.None {
					in.B = b.current(in.B)
				}
				if in.Op == ir.OpStore {
					in.Arr = b.current(in.Arr)
				}
			case ir.OpAssert:
				in.A = b.current(in.A)
				in.Parent = in.A
				if in.B != ir.None {
					in.B = b.current(in.B)
				}
			case ir.OpNeg, ir.OpNot, ir.OpCopy, ir.OpAlloc, ir.OpPrint, ir.OpBr:
				in.A = b.current(in.A)
			case ir.OpLoad:
				in.Arr = b.current(in.Arr)
				in.A = b.current(in.A)
			case ir.OpRet:
				if in.A != ir.None {
					in.A = b.current(in.A)
				}
			case ir.OpCall:
				for i, a := range in.Args {
					in.Args[i] = b.current(a)
				}
			}
		}
		if in.Defines() {
			in.Dst = b.fresh(in.Dst)
			b.pushed = append(b.pushed, in.Dst)
		}
	}

	// Fill φ operands of successors.
	for _, e := range blk.Succs {
		idx := e.To.PredIndex(e)
		for _, phi := range e.To.Phis() {
			if phi.Op != ir.OpPhi {
				break
			}
			// φ args still hold original register names until their own
			// block is renamed; the arg slot for this edge gets our
			// current name of the φ's original register.
			orig := phi.Args[idx]
			if o := b.origOf[phi.Dst]; o != 0 {
				orig = o
			}
			phi.Args[idx] = b.current(orig)
		}
	}

	// Recurse over dominator-tree children.
	for _, c := range b.tree.Children(blk.ID) {
		b.renameBlock(b.f.Blocks[c])
	}

	// Pop.
	for i := len(b.pushed) - 1; i >= mark; i-- {
		nr := b.pushed[i]
		b.top[b.origOf[nr]] = b.shadow[nr]
	}
	b.pushed = b.pushed[:mark]
}
