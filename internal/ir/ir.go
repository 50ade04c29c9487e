// Package ir defines the intermediate representation used by every
// analysis in this repository: a control flow graph of basic blocks holding
// three-address instructions over virtual registers, with first-class edge
// objects so that branch probabilities and execution counts can be attached
// stably to edges.
//
// The representation starts as an ordinary register machine (registers may
// have many definitions); the ssaform package rewrites each function in
// place into SSA form (single definition per register, φ-functions at
// joins, assertion/π instructions after conditional branches). All
// consumers of SSA invariants check Func.SSA.
package ir

import (
	"fmt"

	"vrp/internal/source"
)

// Reg is a virtual register number. Register 0 is reserved as "none"
// (mirroring the paper's NULL / virtual register 0 convention for numeric
// symbolic-bound components).
type Reg int

// None is the zero register: absence of an operand.
const None Reg = 0

// Op is an instruction opcode.
type Op int

// Instruction opcodes.
const (
	OpInvalid Op = iota

	OpConst  // Dst = Const
	OpParam  // Dst = parameter #ArgIndex
	OpInput  // Dst = input()            (statically opaque: ⊥)
	OpBin    // Dst = A <BinOp> B
	OpNeg    // Dst = -A
	OpNot    // Dst = !A                 (A==0 → 1, else 0)
	OpCopy   // Dst = A
	OpPhi    // Dst = φ(Args...)         (one arg per predecessor edge, in Preds order)
	OpAssert // Dst = π(A) asserting A <Rel> B   (B may be None with RelConst set)
	OpAlloc  // Dst = new array, length A
	OpLoad   // Dst = Arr[A]             (Arr is the array register, A the index)
	OpStore  // Arr[A] = B
	OpCall   // Dst = Callee(Args...)
	OpPrint  // print A
	OpRet    // return A (A may be None)
	OpBr     // branch on A: Succs[0] if A != 0 else Succs[1] (terminator)
	OpJmp    // jump Succs[0] (terminator)
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const",
	OpParam:   "param",
	OpInput:   "input",
	OpBin:     "bin",
	OpNeg:     "neg",
	OpNot:     "not",
	OpCopy:    "copy",
	OpPhi:     "phi",
	OpAssert:  "assert",
	OpAlloc:   "alloc",
	OpLoad:    "load",
	OpStore:   "store",
	OpCall:    "call",
	OpPrint:   "print",
	OpRet:     "ret",
	OpBr:      "br",
	OpJmp:     "jmp",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// BinOp is the operator of an OpBin instruction (also reused as the
// relation of an OpAssert).
type BinOp int

// Binary operators. The comparison operators produce 0 or 1.
const (
	BinInvalid BinOp = iota
	BinAdd
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

var binNames = [...]string{
	BinInvalid: "?",
	BinAdd:     "+",
	BinSub:     "-",
	BinMul:     "*",
	BinDiv:     "/",
	BinMod:     "%",
	BinEq:      "==",
	BinNe:      "!=",
	BinLt:      "<",
	BinLe:      "<=",
	BinGt:      ">",
	BinGe:      ">=",
}

func (b BinOp) String() string {
	if b >= 0 && int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("binop(%d)", int(b))
}

// IsComparison reports whether b is a relational operator.
func (b BinOp) IsComparison() bool { return b >= BinEq && b <= BinGe }

// Negate returns the complementary relation (< becomes >=, etc.).
// It panics on non-comparisons.
func (b BinOp) Negate() BinOp {
	switch b {
	case BinEq:
		return BinNe
	case BinNe:
		return BinEq
	case BinLt:
		return BinGe
	case BinLe:
		return BinGt
	case BinGt:
		return BinLe
	case BinGe:
		return BinLt
	}
	panic("ir: Negate of non-comparison " + b.String())
}

// Swap returns the relation with its operands exchanged (< becomes >).
// It panics on non-comparisons.
func (b BinOp) Swap() BinOp {
	switch b {
	case BinEq, BinNe:
		return b
	case BinLt:
		return BinGt
	case BinLe:
		return BinGe
	case BinGt:
		return BinLt
	case BinGe:
		return BinLe
	}
	panic("ir: Swap of non-comparison " + b.String())
}

// Eval applies the operator to concrete values with the Mini semantics:
// 64-bit wraparound arithmetic, division and modulo by zero yield 0, and
// comparisons yield 0/1.
func (b BinOp) Eval(x, y int64) int64 {
	switch b {
	case BinAdd:
		return x + y
	case BinSub:
		return x - y
	case BinMul:
		return x * y
	case BinDiv:
		if y == 0 {
			return 0
		}
		if x == minInt64 && y == -1 {
			return minInt64
		}
		return x / y
	case BinMod:
		if y == 0 {
			return 0
		}
		if x == minInt64 && y == -1 {
			return 0
		}
		return x % y
	case BinEq:
		return b2i(x == y)
	case BinNe:
		return b2i(x != y)
	case BinLt:
		return b2i(x < y)
	case BinLe:
		return b2i(x <= y)
	case BinGt:
		return b2i(x > y)
	case BinGe:
		return b2i(x >= y)
	}
	panic("ir: Eval of " + b.String())
}

const minInt64 = -1 << 63

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EdgeKind classifies a CFG edge.
type EdgeKind int

// Edge kinds.
const (
	EdgeJump  EdgeKind = iota // unconditional successor
	EdgeTrue                  // taken when the branch condition is non-zero
	EdgeFalse                 // taken when the branch condition is zero
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeJump:
		return "jump"
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	}
	return fmt.Sprintf("edgekind(%d)", int(k))
}

// Edge is a control flow graph edge. Edges are shared objects: the same
// *Edge appears in From.Succs and To.Preds, so per-edge analysis results
// (probabilities, execution counts) need no map keyed on pairs.
type Edge struct {
	ID   int // dense index within the function
	From *Block
	To   *Block
	Kind EdgeKind
}

func (e *Edge) String() string {
	return fmt.Sprintf("b%d->b%d(%s)", e.From.ID, e.To.ID, e.Kind)
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Succs  []*Edge // outgoing, branch order: [true, false] for OpBr
	Preds  []*Edge // incoming; φ argument order follows this slice
}

// Terminator returns the block's final instruction (OpBr, OpJmp or OpRet),
// or nil for an empty/unterminated block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if t.Op == OpBr || t.Op == OpJmp || t.Op == OpRet {
		return t
	}
	return nil
}

// Phis returns the block's leading φ instructions.
func (b *Block) Phis() []*Instr {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return b.Instrs[:i]
		}
	}
	return b.Instrs
}

// PredIndex returns the position of e in b.Preds, or -1.
func (b *Block) PredIndex(e *Edge) int {
	for i, p := range b.Preds {
		if p == e {
			return i
		}
	}
	return -1
}

// Instr is a single instruction. Which fields are meaningful depends on Op;
// see the Op constants. Args is used by OpPhi (one entry per predecessor
// edge) and OpCall (actual arguments).
type Instr struct {
	Op       Op
	Dst      Reg
	A, B     Reg
	Arr      Reg    // OpLoad/OpStore: array register
	Const    int64  // OpConst: value; OpAssert with B==None: RHS constant
	BinOp    BinOp  // OpBin: operator; OpAssert: asserted relation of A vs B/Const
	Args     []Reg  // OpPhi, OpCall
	Callee   string // OpCall
	ArgIndex int    // OpParam: parameter position

	// Parent is the π-parent for OpAssert: the SSA value this assertion
	// refines (equal to A). Kept explicit for the paper's footnote-4 φ
	// merge rule even if A is later rewritten.
	Parent Reg

	// Idx is the dense per-function instruction index, assigned by
	// BuildDefUse in block order. Analysis passes use it for worklist
	// membership bitsets and per-instruction counter arrays.
	Idx int

	Block *Block     // owning block (maintained by construction passes)
	Pos   source.Pos // original source position, for diagnostics
}

func (in *Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Const)
	case OpParam:
		return fmt.Sprintf("r%d = param %d", in.Dst, in.ArgIndex)
	case OpInput:
		return fmt.Sprintf("r%d = input()", in.Dst)
	case OpBin:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, in.BinOp, in.B)
	case OpNeg:
		return fmt.Sprintf("r%d = -r%d", in.Dst, in.A)
	case OpNot:
		return fmt.Sprintf("r%d = !r%d", in.Dst, in.A)
	case OpCopy:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpPhi:
		s := fmt.Sprintf("r%d = phi", in.Dst)
		for i, a := range in.Args {
			if i == 0 {
				s += fmt.Sprintf("(r%d", a)
			} else {
				s += fmt.Sprintf(", r%d", a)
			}
		}
		return s + ")"
	case OpAssert:
		if in.B == None {
			return fmt.Sprintf("r%d = assert(r%d %s %d)", in.Dst, in.A, in.BinOp, in.Const)
		}
		return fmt.Sprintf("r%d = assert(r%d %s r%d)", in.Dst, in.A, in.BinOp, in.B)
	case OpAlloc:
		return fmt.Sprintf("r%d = alloc r%d", in.Dst, in.A)
	case OpLoad:
		return fmt.Sprintf("r%d = r%d[r%d]", in.Dst, in.Arr, in.A)
	case OpStore:
		return fmt.Sprintf("r%d[r%d] = r%d", in.Arr, in.A, in.B)
	case OpCall:
		s := fmt.Sprintf("r%d = call %s", in.Dst, in.Callee)
		s += "("
		for i, a := range in.Args {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("r%d", a)
		}
		return s + ")"
	case OpPrint:
		return fmt.Sprintf("print r%d", in.A)
	case OpRet:
		if in.A == None {
			return "ret"
		}
		return fmt.Sprintf("ret r%d", in.A)
	case OpBr:
		return fmt.Sprintf("br r%d", in.A)
	case OpJmp:
		return "jmp"
	}
	return in.Op.String()
}

// Defines reports whether the instruction writes a register.
func (in *Instr) Defines() bool {
	switch in.Op {
	case OpConst, OpParam, OpInput, OpBin, OpNeg, OpNot, OpCopy, OpPhi,
		OpAssert, OpAlloc, OpLoad, OpCall:
		return in.Dst != None
	}
	return false
}

// UseRegs appends the registers the instruction reads to dst and returns
// it. φ arguments are included.
func (in *Instr) UseRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != None {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpBin:
		add(in.A)
		add(in.B)
	case OpNeg, OpNot, OpCopy, OpAlloc, OpPrint, OpBr:
		add(in.A)
	case OpAssert:
		add(in.A)
		add(in.B)
	case OpLoad:
		add(in.Arr)
		add(in.A)
	case OpStore:
		add(in.Arr)
		add(in.A)
		add(in.B)
	case OpRet:
		add(in.A)
	case OpPhi, OpCall:
		for _, a := range in.Args {
			add(a)
		}
	}
	return dst
}

// Func is one function's IR.
type Func struct {
	Name    string
	Params  []Reg // registers holding the formal parameters (OpParam defs)
	Entry   *Block
	Blocks  []*Block // reverse postorder after Renumber
	Edges   []*Edge  // dense, indexed by Edge.ID
	NumRegs int      // registers numbered 1..NumRegs-1 (0 is None)
	SSA     bool     // set by ssaform.Build

	// Names maps registers to source-level variable names for diagnostics
	// and golden tests: irgen fills it for declared variables, ssaform
	// extends it with ".N" version suffixes during renaming.
	Names map[Reg]string

	// SSA metadata, valid when SSA is true.
	Defs []*Instr   // Defs[r] is the unique defining instruction of r (nil for params of dead code)
	Uses [][]*Instr // Uses[r] lists the instructions reading r ("SSA edges")
	// Calls lists every OpCall of the function in block order: the call
	// graph, the interprocedural jump functions and the program-level
	// frequency and cloning passes read it instead of walking the body.
	Calls []*Instr
	// Rets lists every block's OpRet terminator in block order: the
	// interprocedural return-range merge reads it instead of walking the
	// blocks.
	Rets []*Instr
	// Branches lists every block's OpBr terminator in block order: branch
	// predictions are read from it instead of walking the blocks.
	Branches []*Instr

	// LineOffset shifts the line of every instruction position; read
	// positions through Pos. A compile cache shares one compiled body
	// among programs in which the function starts on different lines,
	// each with its own Func header. A fresh compile leaves it 0.
	LineOffset int

	// BodyEnc, when non-nil, is the function's canonical body encoding
	// for cross-request result stores (vrp.EncodeFuncBody) and BodyFP its
	// fingerprint, computed once by a compile cache that shares the body
	// among programs. Such programs are never rewritten in place.
	BodyEnc []byte
	BodyFP  uint64
}

// Pos returns in's source position in f's program: in.Pos moved down
// f.LineOffset lines. in must belong to f.
func (f *Func) Pos(in *Instr) source.Pos {
	p := in.Pos
	if p.IsValid() {
		p.Line += f.LineOffset
	}
	return p
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	if f.NumRegs == 0 {
		f.NumRegs = 1 // reserve register 0
	}
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NumInstrs returns the number of instructions across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a whole compiled program.
type Program struct {
	Funcs  []*Func
	ByName map[string]*Func
	File   *source.File
}

// Main returns the entry function, or nil.
func (p *Program) Main() *Func { return p.ByName["main"] }

// NumInstrs returns the instruction count across all functions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstrs()
	}
	return n
}
