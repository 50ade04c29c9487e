// Package irgen lowers a checked Mini AST to the register-machine IR.
//
// Lowering is conventional: expressions are flattened into fresh temporary
// registers, short-circuit boolean operators become control flow, loops
// become header/body/latch block structures. Scalar variables live in one
// virtual register each (multiply assigned, to be SSA-renamed later);
// arrays live in a register holding an array reference produced by
// OpAlloc.
package irgen

import (
	"fmt"

	"vrp/internal/ast"
	"vrp/internal/ir"
	"vrp/internal/source"
	"vrp/internal/token"
)

// Build lowers the program. The AST must have passed sem.Check.
func Build(prog *ast.Program) (*ir.Program, error) {
	p := &ir.Program{Funcs: make([]*ir.Func, 0, len(prog.Funcs)),
		ByName: make(map[string]*ir.Func, len(prog.Funcs)), File: prog.File}
	g := &Generator{}
	for _, fd := range prog.Funcs {
		f, err := g.Func(fd)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, f)
		p.ByName[f.Name] = f
	}
	return p, nil
}

type varInfo struct {
	reg     ir.Reg
	isArray bool
}

type loopCtx struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

// Generator lowers one function at a time, reusing its scratch buffers
// across the functions it lowers. The zero value is ready to use.
type Generator struct {
	fn   *ir.Func
	cur  *ir.Block
	pend []*ir.Instr // cur's instructions, until sealed

	// scopes[:depth] are the open lexical scopes; maps above depth are
	// emptied and kept for reuse by push.
	scopes []map[string]varInfo
	depth  int
	loops  []loopCtx
}

// Func lowers one function declaration of a checked program. A
// function's IR depends only on its declaration: calls name their callee.
func (g *Generator) Func(fd *ast.FuncDecl) (*ir.Func, error) {
	f := &ir.Func{Name: fd.Name, NumRegs: 1}
	g.fn = f
	g.depth = 0
	g.push()
	g.loops = g.loops[:0]

	f.Entry = f.NewBlock()
	g.cur = f.Entry
	for i, p := range fd.Params {
		r := f.NewReg()
		g.emit(&ir.Instr{Op: ir.OpParam, Dst: r, ArgIndex: i, Pos: p.Pos()})
		f.Params = append(f.Params, r)
		g.declare(p.Name, varInfo{reg: r})
	}
	g.genBlock(fd.Body, true)
	// Implicit `return 0` on fallthrough: only terminate leaves a block
	// terminated, and it leaves no current block.
	if g.cur != nil {
		z := g.emitConst(0)
		g.terminate(&ir.Instr{Op: ir.OpRet, A: z, Pos: fd.Pos()})
	}
	g.pop()
	f.Renumber()
	f.SplitCriticalEdges()
	f.Renumber()
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("irgen: %s: %w", fd.Name, err)
	}
	return f, nil
}

// --------------------------------------------------------------- plumbing

func (g *Generator) push() {
	if g.depth == len(g.scopes) {
		g.scopes = append(g.scopes, map[string]varInfo{})
	}
	g.depth++
}

func (g *Generator) pop() {
	g.depth--
	clear(g.scopes[g.depth])
}

func (g *Generator) declare(name string, vi varInfo) {
	g.scopes[g.depth-1][name] = vi
	if g.fn.Names == nil {
		g.fn.Names = map[ir.Reg]string{}
	}
	g.fn.Names[vi.reg] = name
}

func (g *Generator) lookup(name string) varInfo {
	for i := g.depth - 1; i >= 0; i-- {
		if vi, ok := g.scopes[i][name]; ok {
			return vi
		}
	}
	panic("irgen: unresolved variable " + name + " (sem.Check not run?)")
}

// emit appends to the current block. After a terminator (return/break/
// continue) the current block is nil and a fresh unreachable block is
// started; Renumber discards it later. The current block's instructions
// collect in g.pend until seal, so each block's slice is allocated once,
// at its final length.
func (g *Generator) emit(in *ir.Instr) *ir.Instr {
	if g.cur == nil {
		g.cur = g.fn.NewBlock()
	}
	in.Block = g.cur
	g.pend = append(g.pend, in)
	return in
}

// seal hands the current block its pending instructions.
func (g *Generator) seal() {
	if g.cur != nil && len(g.pend) > 0 {
		g.cur.Instrs = append(g.cur.Instrs, g.pend...)
		g.pend = g.pend[:0]
	}
}

func (g *Generator) emitConst(v int64) ir.Reg {
	r := g.fn.NewReg()
	g.emit(&ir.Instr{Op: ir.OpConst, Dst: r, Const: v})
	return r
}

// terminate ends the current block with in and leaves no current block.
func (g *Generator) terminate(in *ir.Instr) {
	g.emit(in)
	g.seal()
	g.cur = nil
}

// jumpTo ends the current block with a jump to dst.
func (g *Generator) jumpTo(dst *ir.Block) {
	if g.cur == nil {
		g.cur = g.fn.NewBlock()
	}
	from := g.cur
	g.terminate(&ir.Instr{Op: ir.OpJmp})
	g.fn.AddEdge(from, dst, ir.EdgeJump)
}

// branchTo ends the current block with a conditional branch.
func (g *Generator) branchTo(cond ir.Reg, t, f *ir.Block, pos source.Pos) {
	if g.cur == nil {
		g.cur = g.fn.NewBlock()
	}
	from := g.cur
	g.terminate(&ir.Instr{Op: ir.OpBr, A: cond, Pos: pos})
	g.fn.AddEdge(from, t, ir.EdgeTrue)
	g.fn.AddEdge(from, f, ir.EdgeFalse)
}

func (g *Generator) startBlock(b *ir.Block) {
	g.seal()
	g.cur = b
}

// ------------------------------------------------------------- statements

func (g *Generator) genBlock(b *ast.BlockStmt, funcScope bool) {
	if !funcScope {
		g.push()
		defer g.pop()
	}
	for _, s := range b.Stmts {
		g.genStmt(s)
	}
}

func (g *Generator) genStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		g.genBlock(s, false)
	case *ast.VarDecl:
		g.genVarDecl(s)
	case *ast.AssignStmt:
		g.genAssign(s)
	case *ast.IncDecStmt:
		g.genIncDec(s)
	case *ast.IfStmt:
		g.genIf(s)
	case *ast.WhileStmt:
		g.genWhile(s)
	case *ast.ForStmt:
		g.genFor(s)
	case *ast.BreakStmt:
		lc := g.loops[len(g.loops)-1]
		g.jumpTo(lc.breakTo)
	case *ast.ContinueStmt:
		lc := g.loops[len(g.loops)-1]
		g.jumpTo(lc.continueTo)
	case *ast.ReturnStmt:
		var r ir.Reg
		if s.Value != nil {
			r = g.genExpr(s.Value)
		} else {
			r = g.emitConst(0)
		}
		g.terminate(&ir.Instr{Op: ir.OpRet, A: r, Pos: s.Pos()})
	case *ast.PrintStmt:
		r := g.genExpr(s.Value)
		g.emit(&ir.Instr{Op: ir.OpPrint, A: r, Pos: s.Pos()})
	case *ast.ExprStmt:
		g.genExpr(s.X)
	default:
		panic(fmt.Sprintf("irgen: unknown statement %T", s))
	}
}

func (g *Generator) genVarDecl(s *ast.VarDecl) {
	if s.Size != nil {
		size := g.genExpr(s.Size)
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpAlloc, Dst: r, A: size, Pos: s.Pos()})
		g.declare(s.Name, varInfo{reg: r, isArray: true})
		return
	}
	var init ir.Reg
	if s.Init != nil {
		init = g.genExpr(s.Init)
	} else {
		init = g.emitConst(0)
	}
	r := g.fn.NewReg()
	g.emit(&ir.Instr{Op: ir.OpCopy, Dst: r, A: init, Pos: s.Pos()})
	g.declare(s.Name, varInfo{reg: r})
}

func compoundOp(k token.Kind) ir.BinOp {
	switch k {
	case token.PlusAssign:
		return ir.BinAdd
	case token.MinusAssign:
		return ir.BinSub
	case token.StarAssign:
		return ir.BinMul
	case token.SlashAssign:
		return ir.BinDiv
	case token.PercentAssign:
		return ir.BinMod
	}
	return ir.BinInvalid
}

func (g *Generator) genAssign(s *ast.AssignStmt) {
	if s.Target != nil {
		vi := g.lookup(s.Target.Name)
		val := g.genExpr(s.Value)
		if op := compoundOp(s.Op); op != ir.BinInvalid {
			g.emit(&ir.Instr{Op: ir.OpBin, Dst: vi.reg, A: vi.reg, B: val, BinOp: op, Pos: s.Pos()})
			return
		}
		g.emit(&ir.Instr{Op: ir.OpCopy, Dst: vi.reg, A: val, Pos: s.Pos()})
		return
	}
	vi := g.lookup(s.Index.Array)
	idx := g.genExpr(s.Index.Index)
	val := g.genExpr(s.Value)
	if op := compoundOp(s.Op); op != ir.BinInvalid {
		old := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpLoad, Dst: old, Arr: vi.reg, A: idx, Pos: s.Pos()})
		nv := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpBin, Dst: nv, A: old, B: val, BinOp: op, Pos: s.Pos()})
		val = nv
	}
	g.emit(&ir.Instr{Op: ir.OpStore, Arr: vi.reg, A: idx, B: val, Pos: s.Pos()})
}

func (g *Generator) genIncDec(s *ast.IncDecStmt) {
	op := ir.BinAdd
	if s.Op == token.Dec {
		op = ir.BinSub
	}
	one := g.emitConst(1)
	if s.Target != nil {
		vi := g.lookup(s.Target.Name)
		g.emit(&ir.Instr{Op: ir.OpBin, Dst: vi.reg, A: vi.reg, B: one, BinOp: op, Pos: s.Pos()})
		return
	}
	vi := g.lookup(s.Index.Array)
	idx := g.genExpr(s.Index.Index)
	old := g.fn.NewReg()
	g.emit(&ir.Instr{Op: ir.OpLoad, Dst: old, Arr: vi.reg, A: idx, Pos: s.Pos()})
	nv := g.fn.NewReg()
	g.emit(&ir.Instr{Op: ir.OpBin, Dst: nv, A: old, B: one, BinOp: op, Pos: s.Pos()})
	g.emit(&ir.Instr{Op: ir.OpStore, Arr: vi.reg, A: idx, B: nv, Pos: s.Pos()})
}

func (g *Generator) genIf(s *ast.IfStmt) {
	thenB := g.fn.NewBlock()
	exitB := g.fn.NewBlock()
	elseB := exitB
	if s.Else != nil {
		elseB = g.fn.NewBlock()
	}
	g.genCond(s.Cond, thenB, elseB)

	g.startBlock(thenB)
	g.genStmt(s.Then)
	g.jumpTo(exitB)

	if s.Else != nil {
		g.startBlock(elseB)
		g.genStmt(s.Else)
		g.jumpTo(exitB)
	}
	g.startBlock(exitB)
}

func (g *Generator) genWhile(s *ast.WhileStmt) {
	header := g.fn.NewBlock()
	body := g.fn.NewBlock()
	exit := g.fn.NewBlock()
	g.jumpTo(header)

	g.startBlock(header)
	g.genCond(s.Cond, body, exit)

	g.loops = append(g.loops, loopCtx{breakTo: exit, continueTo: header})
	g.startBlock(body)
	g.genStmt(s.Body)
	g.jumpTo(header)
	g.loops = g.loops[:len(g.loops)-1]

	g.startBlock(exit)
}

func (g *Generator) genFor(s *ast.ForStmt) {
	g.push()
	defer g.pop()
	if s.Init != nil {
		g.genStmt(s.Init)
	}
	header := g.fn.NewBlock()
	body := g.fn.NewBlock()
	exit := g.fn.NewBlock()
	latch := header
	if s.Post != nil {
		latch = g.fn.NewBlock()
	}
	g.jumpTo(header)

	g.startBlock(header)
	if s.Cond != nil {
		g.genCond(s.Cond, body, exit)
	} else {
		g.jumpTo(body)
	}

	g.loops = append(g.loops, loopCtx{breakTo: exit, continueTo: latch})
	g.startBlock(body)
	g.genStmt(s.Body)
	g.jumpTo(latch)
	g.loops = g.loops[:len(g.loops)-1]

	if s.Post != nil {
		g.startBlock(latch)
		g.genStmt(s.Post)
		g.jumpTo(header)
	}

	g.startBlock(exit)
}

// ------------------------------------------------------------ expressions

// genCond lowers a boolean context: control transfers to t when the
// expression is non-zero and to f otherwise. Short-circuit operators become
// nested branches so every conditional branch in the IR tests exactly one
// comparison or value, as the paper's representation assumes.
func (g *Generator) genCond(e ast.Expr, t, f *ir.Block) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AndAnd:
			mid := g.fn.NewBlock()
			g.genCond(e.X, mid, f)
			g.startBlock(mid)
			g.genCond(e.Y, t, f)
			return
		case token.OrOr:
			mid := g.fn.NewBlock()
			g.genCond(e.X, t, mid)
			g.startBlock(mid)
			g.genCond(e.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.Not {
			g.genCond(e.X, f, t)
			return
		}
	case *ast.BoolLit:
		if e.Value {
			g.jumpTo(t)
		} else {
			g.jumpTo(f)
		}
		return
	}
	r := g.genExpr(e)
	g.branchTo(r, t, f, e.Pos())
}

func binOpFor(k token.Kind) ir.BinOp {
	switch k {
	case token.Plus:
		return ir.BinAdd
	case token.Minus:
		return ir.BinSub
	case token.Star:
		return ir.BinMul
	case token.Slash:
		return ir.BinDiv
	case token.Percent:
		return ir.BinMod
	case token.Eq:
		return ir.BinEq
	case token.Neq:
		return ir.BinNe
	case token.Lt:
		return ir.BinLt
	case token.Leq:
		return ir.BinLe
	case token.Gt:
		return ir.BinGt
	case token.Geq:
		return ir.BinGe
	}
	return ir.BinInvalid
}

func (g *Generator) genExpr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		return g.emitConst(e.Value)
	case *ast.BoolLit:
		if e.Value {
			return g.emitConst(1)
		}
		return g.emitConst(0)
	case *ast.VarRef:
		// Copy into a fresh temp so that the variable register itself is
		// the only multiply-assigned name; temps stay single-def which
		// keeps branch-condition defs locally discoverable.
		vi := g.lookup(e.Name)
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpCopy, Dst: r, A: vi.reg, Pos: e.Pos()})
		return r
	case *ast.IndexExpr:
		vi := g.lookup(e.Array)
		idx := g.genExpr(e.Index)
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpLoad, Dst: r, Arr: vi.reg, A: idx, Pos: e.Pos()})
		return r
	case *ast.CallExpr:
		var args []ir.Reg
		for _, a := range e.Args {
			args = append(args, g.genExpr(a))
		}
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpCall, Dst: r, Callee: e.Name, Args: args, Pos: e.Pos()})
		return r
	case *ast.InputExpr:
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpInput, Dst: r, Pos: e.Pos()})
		return r
	case *ast.UnaryExpr:
		x := g.genExpr(e.X)
		r := g.fn.NewReg()
		if e.Op == token.Minus {
			g.emit(&ir.Instr{Op: ir.OpNeg, Dst: r, A: x, Pos: e.Pos()})
		} else {
			g.emit(&ir.Instr{Op: ir.OpNot, Dst: r, A: x, Pos: e.Pos()})
		}
		return r
	case *ast.BinaryExpr:
		if e.Op == token.AndAnd || e.Op == token.OrOr {
			return g.genShortCircuitValue(e)
		}
		x := g.genExpr(e.X)
		y := g.genExpr(e.Y)
		r := g.fn.NewReg()
		g.emit(&ir.Instr{Op: ir.OpBin, Dst: r, A: x, B: y, BinOp: binOpFor(e.Op), Pos: e.Pos()})
		return r
	}
	panic(fmt.Sprintf("irgen: unknown expression %T", e))
}

// genShortCircuitValue materialises `a && b` / `a || b` used as a value:
// a mutable temp is written in both arms and joined.
func (g *Generator) genShortCircuitValue(e *ast.BinaryExpr) ir.Reg {
	res := g.fn.NewReg()
	t := g.fn.NewBlock()
	f := g.fn.NewBlock()
	exit := g.fn.NewBlock()
	g.genCond(e, t, f)
	g.startBlock(t)
	one := g.emitConst(1)
	g.emit(&ir.Instr{Op: ir.OpCopy, Dst: res, A: one, Pos: e.Pos()})
	g.jumpTo(exit)
	g.startBlock(f)
	zero := g.emitConst(0)
	g.emit(&ir.Instr{Op: ir.OpCopy, Dst: res, A: zero, Pos: e.Pos()})
	g.jumpTo(exit)
	g.startBlock(exit)
	return res
}
