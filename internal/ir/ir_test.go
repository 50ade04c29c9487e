package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinOpEval(t *testing.T) {
	cases := []struct {
		op      BinOp
		x, y, w int64
	}{
		{BinAdd, 2, 3, 5},
		{BinSub, 2, 3, -1},
		{BinMul, -4, 3, -12},
		{BinDiv, 7, 2, 3},
		{BinDiv, -7, 2, -3}, // truncated division
		{BinDiv, 5, 0, 0},   // defined: /0 == 0
		{BinMod, 7, 3, 1},
		{BinMod, -7, 3, -1}, // truncated remainder
		{BinMod, 5, 0, 0},
		{BinEq, 3, 3, 1},
		{BinEq, 3, 4, 0},
		{BinNe, 3, 4, 1},
		{BinLt, 2, 3, 1},
		{BinLe, 3, 3, 1},
		{BinGt, 3, 3, 0},
		{BinGe, 3, 2, 1},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.w {
			t.Errorf("%d %s %d = %d, want %d", c.x, c.op, c.y, got, c.w)
		}
	}
}

func TestBinOpEvalOverflowEdges(t *testing.T) {
	if got := BinDiv.Eval(math.MinInt64, -1); got != math.MinInt64 {
		t.Errorf("MinInt64 / -1 = %d", got)
	}
	if got := BinMod.Eval(math.MinInt64, -1); got != 0 {
		t.Errorf("MinInt64 %% -1 = %d", got)
	}
}

// Property: Eval agrees with Go's semantics wherever both are defined.
func TestBinOpEvalMatchesGo(t *testing.T) {
	check := func(x, y int64) bool {
		if BinAdd.Eval(x, y) != x+y || BinSub.Eval(x, y) != x-y || BinMul.Eval(x, y) != x*y {
			return false
		}
		if y != 0 && !(x == math.MinInt64 && y == -1) {
			if BinDiv.Eval(x, y) != x/y || BinMod.Eval(x, y) != x%y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Property: Negate complements the relation, Swap mirrors it.
func TestNegateSwapProperties(t *testing.T) {
	rels := []BinOp{BinEq, BinNe, BinLt, BinLe, BinGt, BinGe}
	check := func(x, y int64, i uint8) bool {
		op := rels[int(i)%len(rels)]
		v := op.Eval(x, y)
		if op.Negate().Eval(x, y) != 1-v {
			return false
		}
		if op.Swap().Eval(y, x) != v {
			return false
		}
		// Involutions.
		return op.Negate().Negate() == op && op.Swap().Swap() == op
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestNegatePanicsOnArith(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Negate(BinAdd) should panic")
		}
	}()
	BinAdd.Negate()
}

func buildDiamond(t *testing.T) *Func {
	t.Helper()
	f := &Func{Name: "d", NumRegs: 1}
	entry := f.NewBlock()
	thenB := f.NewBlock()
	elseB := f.NewBlock()
	exit := f.NewBlock()
	f.Entry = entry
	c := f.NewReg()
	entry.Append(&Instr{Op: OpConst, Dst: c, Const: 1})
	entry.Append(&Instr{Op: OpBr, A: c})
	f.AddEdge(entry, thenB, EdgeTrue)
	f.AddEdge(entry, elseB, EdgeFalse)
	thenB.Append(&Instr{Op: OpJmp})
	f.AddEdge(thenB, exit, EdgeJump)
	elseB.Append(&Instr{Op: OpJmp})
	f.AddEdge(elseB, exit, EdgeJump)
	z := f.NewReg()
	exit.Append(&Instr{Op: OpConst, Dst: z, Const: 0})
	exit.Append(&Instr{Op: OpRet, A: z})
	f.Renumber()
	return f
}

func TestVerifyDiamond(t *testing.T) {
	f := buildDiamond(t)
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	f := buildDiamond(t)
	last := f.Blocks[len(f.Blocks)-1]
	last.Instrs = last.Instrs[:len(last.Instrs)-1] // drop the ret
	if err := f.Verify(); err == nil {
		t.Error("Verify accepted a block without terminator")
	}
}

func TestVerifyCatchesBadPhiArity(t *testing.T) {
	f := buildDiamond(t)
	exit := f.Blocks[len(f.Blocks)-1]
	phi := &Instr{Op: OpPhi, Dst: f.NewReg(), Args: []Reg{1}, Block: exit}
	exit.Instrs = append([]*Instr{phi}, exit.Instrs...)
	if err := f.Verify(); err == nil {
		t.Error("Verify accepted a φ with wrong arity")
	}
}

func TestRenumberDropsUnreachable(t *testing.T) {
	f := buildDiamond(t)
	dead := f.NewBlock()
	dead.Append(&Instr{Op: OpJmp})
	f.AddEdge(dead, f.Blocks[1], EdgeJump) // edge into live graph
	preCount := len(f.Blocks)
	f.Renumber()
	if len(f.Blocks) != preCount-1 {
		t.Errorf("blocks = %d, want %d", len(f.Blocks), preCount-1)
	}
	// The live block's pred list must no longer mention the dead block.
	for _, b := range f.Blocks {
		for _, e := range b.Preds {
			if e.From == dead {
				t.Error("pred edge from removed block survived")
			}
		}
	}
	// RPO invariant: entry is block 0, IDs dense.
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// Build: entry branches to A and join; A branches to join and exit.
	// entry→join and A→join are critical (multi-succ source, multi-pred
	// target).
	f := &Func{Name: "c", NumRegs: 1}
	entry := f.NewBlock()
	a := f.NewBlock()
	join := f.NewBlock()
	exit := f.NewBlock()
	f.Entry = entry
	c := f.NewReg()
	entry.Append(&Instr{Op: OpConst, Dst: c, Const: 1})
	entry.Append(&Instr{Op: OpBr, A: c})
	f.AddEdge(entry, a, EdgeTrue)
	f.AddEdge(entry, join, EdgeFalse)
	a.Append(&Instr{Op: OpBr, A: c})
	f.AddEdge(a, join, EdgeTrue)
	f.AddEdge(a, exit, EdgeFalse)
	join.Append(&Instr{Op: OpJmp})
	f.AddEdge(join, exit, EdgeJump)
	exit.Append(&Instr{Op: OpRet})
	f.Renumber()
	f.SplitCriticalEdges()
	f.Renumber()
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify after split: %v", err)
	}
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			if len(b.Succs) > 1 && len(e.To.Preds) > 1 {
				t.Errorf("critical edge %s survived", e)
			}
		}
	}
}

func TestPhisAndPredIndex(t *testing.T) {
	f := buildDiamond(t)
	exit := f.Blocks[len(f.Blocks)-1]
	phi := &Instr{Op: OpPhi, Dst: f.NewReg(), Args: []Reg{1, 1}, Block: exit}
	exit.Instrs = append([]*Instr{phi}, exit.Instrs...)
	if got := exit.Phis(); len(got) != 1 || got[0] != phi {
		t.Errorf("Phis() = %v", got)
	}
	for i, e := range exit.Preds {
		if exit.PredIndex(e) != i {
			t.Errorf("PredIndex(%v) = %d, want %d", e, exit.PredIndex(e), i)
		}
	}
	if exit.PredIndex(&Edge{}) != -1 {
		t.Error("PredIndex of foreign edge should be -1")
	}
}

func TestUseRegs(t *testing.T) {
	in := &Instr{Op: OpStore, Arr: 3, A: 4, B: 5}
	regs := in.UseRegs(nil)
	if len(regs) != 3 {
		t.Errorf("store UseRegs = %v", regs)
	}
	phi := &Instr{Op: OpPhi, Dst: 1, Args: []Reg{2, None, 3}}
	regs = phi.UseRegs(nil)
	if len(regs) != 2 { // None filtered
		t.Errorf("phi UseRegs = %v", regs)
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: 1, Const: 42}, "r1 = const 42"},
		{&Instr{Op: OpBin, Dst: 3, A: 1, B: 2, BinOp: BinLt}, "r3 = r1 < r2"},
		{&Instr{Op: OpAssert, Dst: 2, A: 1, BinOp: BinLt, Const: 10}, "r2 = assert(r1 < 10)"},
		{&Instr{Op: OpPhi, Dst: 4, Args: []Reg{1, 2}}, "r4 = phi(r1, r2)"},
		{&Instr{Op: OpLoad, Dst: 5, Arr: 2, A: 3}, "r5 = r2[r3]"},
		{&Instr{Op: OpRet}, "ret"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestFuncString(t *testing.T) {
	f := buildDiamond(t)
	s := f.String()
	for _, frag := range []string{"func d:", "b0:", "br r1", "ret"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Func.String() missing %q:\n%s", frag, s)
		}
	}
}

func TestBuildDefUseRejectsDoubleDef(t *testing.T) {
	f := buildDiamond(t)
	f.Blocks[0].Instrs = append([]*Instr{
		{Op: OpConst, Dst: 1, Const: 9, Block: f.Blocks[0]},
	}, f.Blocks[0].Instrs...)
	if err := f.BuildDefUse(); err == nil {
		t.Error("BuildDefUse accepted a double definition")
	}
}

func TestVerifyCatchesSSADoubleDef(t *testing.T) {
	f := buildDiamond(t)
	f.SSA = true
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	f.Blocks[0].Instrs = append([]*Instr{
		{Op: OpConst, Dst: 1, Const: 9, Block: f.Blocks[0]},
	}, f.Blocks[0].Instrs...)
	if err := f.Verify(); err == nil {
		t.Error("Verify accepted a double definition in SSA form")
	}
}

// TestBuildDefUseLists checks the use lists BuildDefUse carves from one
// array: each lists its readers in instruction order, unused registers
// have none, and appending to one list leaves its neighbour intact.
func TestBuildDefUseLists(t *testing.T) {
	f := &Func{Name: "u", NumRegs: 1}
	b := f.NewBlock()
	f.Entry = b
	x, y, s, unused := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b.Append(&Instr{Op: OpConst, Dst: x, Const: 1})
	b.Append(&Instr{Op: OpConst, Dst: y, Const: 2})
	b.Append(&Instr{Op: OpConst, Dst: unused, Const: 3})
	add := b.Append(&Instr{Op: OpBin, Dst: s, A: x, B: y, BinOp: BinAdd})
	pr := b.Append(&Instr{Op: OpPrint, A: x})
	ret := b.Append(&Instr{Op: OpRet, A: s})
	if err := f.BuildDefUse(); err != nil {
		t.Fatal(err)
	}
	want := map[Reg][]*Instr{x: {add, pr}, y: {add}, s: {ret}}
	for r := Reg(1); int(r) < f.NumRegs; r++ {
		got := f.Uses[r]
		if len(got) != len(want[r]) {
			t.Fatalf("Uses[r%d] = %v, want %v", r, got, want[r])
		}
		for i := range got {
			if got[i] != want[r][i] {
				t.Errorf("Uses[r%d][%d] = %s, want %s", r, i, got[i], want[r][i])
			}
		}
	}
	if f.Uses[unused] != nil {
		t.Errorf("Uses[r%d] = %v, want nil", unused, f.Uses[unused])
	}
	f.Uses[x] = append(f.Uses[x], ret)
	if f.Uses[y][0] != add {
		t.Error("appending to one use list overwrote the next")
	}
	for i, in := range b.Instrs {
		if in.Idx != i {
			t.Errorf("instr %s has Idx %d, want %d", in, in.Idx, i)
		}
	}
}

func TestWriteDot(t *testing.T) {
	f := buildDiamond(t)
	var sb strings.Builder
	f.WriteDot(&sb, func(e *Edge) string { return "0.5" })
	out := sb.String()
	for _, frag := range []string{"digraph \"d\"", "b0 ->", "color=darkgreen", "color=red3", "0.5"} {
		if !strings.Contains(out, frag) {
			t.Errorf("dot output missing %q:\n%s", frag, out)
		}
	}
}
