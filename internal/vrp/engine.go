package vrp

import (
	"context"
	"math"
	"slices"
	"sync"

	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// abortReason says why an engine run stopped before its fixed point.
type abortReason int

const (
	abortNone       abortReason = iota
	abortCancelled              // the run's context was cancelled
	abortStepBudget             // Config.MaxEngineSteps exhausted
)

// engine runs the §3.3 worklist algorithm over one function. Its
// interprocedural inputs are frozen into `in` by the driver before the run
// starts, so the engine never reads shared mutable state — engines of
// call-independent functions can run concurrently.
type engine struct {
	f      *ir.Func
	cfg    Config
	calc   *vrange.Calc
	irProg *ir.Program
	in     *funcInputs
	ctx    context.Context

	abort abortReason // set when the run stops before its fixed point

	tree      *dom.Tree
	loops     *dom.LoopInfo
	backEdges []bool // by edge ID

	// The result's dense slices, written in place (see FuncResult): prob
	// holds NaN for a branch not yet evaluated until finalize.
	val      []vrange.Value // per register
	edgeFreq []float64      // per edge ID; solved by the freq package
	prob     []float64      // per block ID
	src      []PredictionSource
	derived  []bool // per Instr.Idx
	visited  []bool // per block ID

	// fr is the solver's solution, from the run's first (full) solve on;
	// nil before it. Later solves update it in place.
	fr *freq.Frequencies

	// Per-instruction counters and marks, indexed by Instr.Idx (dense,
	// assigned by BuildDefUse) — flat arrays instead of maps, so the
	// membership tests and budget bumps on the propagation hot path never
	// hash or allocate.
	evalCount     []int32 // structural changes (widening budget)
	probCount     []int32 // probability-only changes (churn budget)
	brUpdates     []int32 // per block ID: accepted branch probability updates
	derivedStrict []bool  // constraint-derived with all-nonzero increments
	deriveFailed  []bool
	deriveDeps    map[ir.Reg][]*ir.Instr // value → derived φs consulting it

	// Worklists are FIFO queues (head index + slice): breadth-first
	// draining lets the frequency updates of one loop traversal coalesce
	// instead of rippling depth-first through every pending edge.
	// Membership bitsets are indexed by Edge.ID and Instr.Idx.
	flowWL   []*ir.Edge
	flowHead int
	inFlow   []bool
	ssaWL    []*ir.Instr
	ssaHead  int
	inSSA    []bool

	// evalPhi scratch, reused across φ evaluations.
	phiOps   []phiOp
	phiItems []vrange.Weighted

	// sc is the recycled allocation pool this run borrowed its working
	// arrays from; solver and probFn re-solve frequencies without
	// per-solve allocations. memo holds the point values the run
	// derives once.
	sc     *engineScratch
	memo   *runMemo
	solver *freq.Solver
	probFn freq.BranchProbFunc

	// stats is the run's effort record. SubOps stays 0 and Widens counts
	// only the MaxEvals ⊥-widens: the calculator's sub-operations and
	// set-cap widenings accrue to calc, and the driver adds them.
	stats Effort
}

// phiOp is one executable φ in-edge: the operand register and edge weight.
type phiOp struct {
	reg ir.Reg
	w   float64
}

// engineScratch holds the per-function allocations that survive across
// engine runs: the dominator structures (the CFG never changes during an
// analysis) and the recycled working arrays. The driver keeps one per
// function under the same ownership discipline as the per-SCC interners —
// a function is analyzed by exactly one task per wave and re-runs are
// ordered by the wave barriers, so reuse is race-free. The slices that
// escape into the FuncResult are NOT here: they are the superseded
// result's (see runEngine) or fresh. A function that degrades (panic or
// step budget) is quarantined and never re-runs, so a half-mutated
// scratch is never observed.
type engineScratch struct {
	tree      *dom.Tree
	loops     *dom.LoopInfo
	backEdges []bool // by edge ID
	solver    *freq.Solver

	visited       []bool
	fallback      []float64 // by block ID: Config.Fallback's answer; NaN: not asked yet
	evalCount     []int32
	probCount     []int32
	brUpdates     []int32
	derivedStrict []bool
	deriveFailed  []bool
	deriveDeps    map[ir.Reg][]*ir.Instr
	inFlow        []bool
	inSSA         []bool
	flowWL        []*ir.Edge
	ssaWL         []*ir.Instr
	phiOps        []phiOp
	phiItems      []vrange.Weighted

	// Derivation scratch: the walker (with its own recycled stacks) and
	// the init-operand slices of engine.derive.
	dw      walker
	dvItems []vrange.Weighted
	dvRegs  []ir.Reg
	dvBack  []ir.Reg
}

func newEngineScratch(f *ir.Func) *engineScratch {
	n := f.NumInstrs()
	tree := dom.New(f)
	loops := dom.FindLoops(f, tree)
	back := dom.BackEdges(f, tree)
	sc := &engineScratch{
		tree:          tree,
		loops:         loops,
		backEdges:     back,
		solver:        freq.NewSolver(f, tree, loops, back),
		visited:       make([]bool, len(f.Blocks)),
		fallback:      make([]float64, len(f.Blocks)),
		evalCount:     make([]int32, n),
		probCount:     make([]int32, n),
		brUpdates:     make([]int32, len(f.Blocks)),
		derivedStrict: make([]bool, n),
		deriveFailed:  make([]bool, n),
		deriveDeps:    map[ir.Reg][]*ir.Instr{},
		inFlow:        make([]bool, len(f.Edges)),
		inSSA:         make([]bool, n),
		dw:            walker{onPath: make([]bool, f.NumRegs)},
	}
	for i := range sc.fallback {
		sc.fallback[i] = math.NaN()
	}
	return sc
}

// reset zeroes every borrowed array so a fresh run starts from the same
// state a fresh allocation would. The Fallback answers stay: the hook is
// a pure function of the function and the branch.
func (sc *engineScratch) reset() {
	clear(sc.visited)
	clear(sc.evalCount)
	clear(sc.probCount)
	clear(sc.brUpdates)
	clear(sc.derivedStrict)
	clear(sc.deriveFailed)
	clear(sc.deriveDeps)
	clear(sc.inFlow)
	clear(sc.inSSA)
	sc.flowWL = sc.flowWL[:0]
	sc.ssaWL = sc.ssaWL[:0]
	sc.phiOps = sc.phiOps[:0]
	sc.phiItems = sc.phiItems[:0]
	clear(sc.dw.onPath)
}

// runMemo caches, for one engine run, the interned point values a ⊥
// operand's symbolic substitute (rootOf + SymbolicVal, by register) and
// an assertion's constant bound (ConstVal, by instruction) stand for,
// which the run would otherwise re-derive at every evaluation. Each is a
// pure function of the body and the run's table, so a hit returns
// exactly what a fresh derivation would. One memo serves every run of a
// driver worker slot, and memoPool recycles memos across analyses, so
// their slices grow to the largest function seen, not once per function
// or per analysis.
type runMemo struct {
	point  []int32        // by register, then NumRegs+Instr.Idx: index+1 into points, 0 = not derived
	points []vrange.Value // the run's derived point values
}

// reset sizes the memo to f and forgets the previous run.
func (m *runMemo) reset(f *ir.Func) {
	np := f.NumRegs + f.NumInstrs()
	m.point = slices.Grow(m.point[:0], np)[:np]
	clear(m.point)
	clear(m.points)
	m.points = m.points[:0]
}

// memoPool recycles run memos across analyses.
var memoPool = sync.Pool{New: func() any { return new(runMemo) }}

// release forgets the last run's point values, so a pooled memo pins no
// table's arena, and returns the memo to memoPool.
func (m *runMemo) release() {
	clear(m.points)
	m.points = m.points[:0]
	memoPool.Put(m)
}

// newEngine prepares one run over f. prev, when non-nil, is a superseded
// result whose slices the run may overwrite; otherwise the run allocates
// its own. sc, when nil, is allocated for the run.
func newEngine(ctx context.Context, f *ir.Func, cfg Config, calc *vrange.Calc, prog *ir.Program, in *funcInputs, sc *engineScratch, memo *runMemo, prev *FuncResult) *engine {
	if sc == nil {
		sc = newEngineScratch(f)
	} else {
		sc.reset()
	}
	memo.reset(f)
	var out FuncResult
	if prev != nil {
		out = *prev
		clear(out.EdgeFreq)
		clear(out.Source)
		clear(out.Derived)
	} else {
		out = FuncResult{
			val:      make([]vrange.Value, f.NumRegs),
			EdgeFreq: make([]float64, len(f.Edges)),
			Prob:     make([]float64, len(f.Blocks)),
			Source:   make([]PredictionSource, len(f.Blocks)),
			Derived:  make([]bool, f.NumInstrs()),
		}
	}
	e := &engine{
		f:             f,
		cfg:           cfg,
		calc:          calc,
		irProg:        prog,
		in:            in,
		ctx:           ctx,
		val:           out.val,
		edgeFreq:      out.EdgeFreq,
		prob:          out.Prob,
		src:           out.Source,
		derived:       out.Derived,
		visited:       sc.visited,
		evalCount:     sc.evalCount,
		probCount:     sc.probCount,
		brUpdates:     sc.brUpdates,
		derivedStrict: sc.derivedStrict,
		deriveFailed:  sc.deriveFailed,
		deriveDeps:    sc.deriveDeps,
		inFlow:        sc.inFlow,
		inSSA:         sc.inSSA,
		flowWL:        sc.flowWL,
		ssaWL:         sc.ssaWL,
		phiOps:        sc.phiOps,
		phiItems:      sc.phiItems,
		sc:            sc,
		memo:          memo,
		solver:        sc.solver,
	}
	for i := range e.val {
		e.val[i] = vrange.TopValue()
	}
	for i := range e.prob {
		e.prob[i] = math.NaN()
	}
	e.tree = sc.tree
	e.loops = sc.loops
	e.backEdges = sc.backEdges
	e.probFn = func(br *ir.Instr) (float64, bool) {
		p := e.prob[br.Block.ID]
		return p, !math.IsNaN(p)
	}
	return e
}

// recycle hands the run's (possibly grown) worklist and scratch slices
// back to the pool. Call after the run's results have been read; the
// engine must not be used afterwards.
func (e *engine) recycle() {
	sc := e.sc
	sc.flowWL = e.flowWL
	sc.ssaWL = e.ssaWL
	sc.phiOps = e.phiOps
	sc.phiItems = e.phiItems
}

func (e *engine) prog() *ir.Program { return e.irProg }

// blockFreq is the node's expected executions per invocation, from the
// last frequency solve (footnote 1's "sum of the probabilities of the
// edges which lead to the node being executed", with the loop feedback
// solved in closed form).
func (e *engine) blockFreq(b *ir.Block) float64 {
	if b == e.f.Entry {
		return 1
	}
	if e.fr == nil {
		return 0 // not solved yet: nothing is executable
	}
	s := e.fr.Block[b.ID]
	if s > maxFreq {
		return maxFreq
	}
	return s
}

// recomputeFreqs re-solves block/edge frequencies after b's branch
// probability changed, scheduling every materially changed edge. The
// run's first solve is a full Compute that visits every edge; every later
// one is an Update from b that visits only the edges whose bits moved, in
// ascending edge ID as the full scan would (an unvisited edge's clamped
// frequency already equals the copy in edgeFreq, so it would push
// nothing). Block frequencies are read from the solver's buffer (fr);
// edgeFreq is the result's own, clamped copy.
func (e *engine) recomputeFreqs(b *ir.Block) {
	if e.fr == nil {
		e.fr = e.solver.Compute(e.probFn)
		for i := range e.fr.Edge {
			e.setEdgeFreq(i)
		}
		return
	}
	for _, id := range e.solver.Update(b) {
		e.setEdgeFreq(int(id))
	}
}

// setEdgeFreq copies edge id's solved frequency into edgeFreq, clamped to
// maxFreq, and schedules the edge when it changed materially.
func (e *engine) setEdgeFreq(id int) {
	nv := e.fr.Edge[id]
	if nv > maxFreq {
		nv = maxFreq
	}
	old := e.edgeFreq[id]
	if math.Abs(nv-old) > freqEpsilon*math.Max(1, old) {
		e.pushFlow(e.f.Edges[id])
	}
	e.edgeFreq[id] = nv
}

func (e *engine) pushFlow(ed *ir.Edge) {
	if !e.inFlow[ed.ID] {
		e.inFlow[ed.ID] = true
		e.flowWL = append(e.flowWL, ed)
		e.stats.FlowPushes++
		e.stats.FlowPeak = max(e.stats.FlowPeak, int64(len(e.flowWL)-e.flowHead))
	}
}

func (e *engine) pushSSA(in *ir.Instr) {
	if !e.inSSA[in.Idx] {
		e.inSSA[in.Idx] = true
		e.ssaWL = append(e.ssaWL, in)
		e.stats.SSAPushes++
		e.stats.SSAPeak = max(e.stats.SSAPeak, int64(len(e.ssaWL)-e.ssaHead))
	}
}

// compactQueues reclaims queue prefixes once they dominate the slice.
func (e *engine) compactQueues() {
	if e.flowHead > 1024 && e.flowHead*2 > len(e.flowWL) {
		n := copy(e.flowWL, e.flowWL[e.flowHead:])
		e.flowWL = e.flowWL[:n]
		e.flowHead = 0
	}
	if e.ssaHead > 1024 && e.ssaHead*2 > len(e.ssaWL) {
		n := copy(e.ssaWL, e.ssaWL[e.ssaHead:])
		e.ssaWL = e.ssaWL[:n]
		e.ssaHead = 0
	}
}

// pushUses adds the SSA out-edges of a changed definition (and any derived
// φ that consulted the value during derivation).
func (e *engine) pushUses(r ir.Reg) {
	for _, u := range e.f.Uses[r] {
		e.pushSSA(u)
	}
	for _, phi := range e.deriveDeps[r] {
		e.pushSSA(phi)
	}
}

// cancelCheckMask throttles context polls to one per 256 worklist steps:
// frequent enough to stop a pathological function promptly, rare enough
// that the atomic load never shows up in profiles.
const cancelCheckMask = 0xFF

// run executes the algorithm of §3.3 to its fixed point — or stops early,
// setting e.abort, when the context is cancelled or the step budget
// (Config.MaxEngineSteps) runs out. An aborted run's partial state is
// discarded by the driver, which substitutes the degraded ⊥/heuristic
// result.
func (e *engine) run() {
	if e.cfg.testHookEngineRun != nil {
		e.cfg.testHookEngineRun(e.f)
	}
	// Step 1: the entry node is executable with probability 1; evaluate it
	// and seed the FlowWorkList with its out-edges via the first frequency
	// solve (the entry's own branch, if it has one, may already have
	// solved: nothing changed since).
	e.visitBlock(e.f.Entry)
	if e.fr == nil {
		e.recomputeFreqs(nil)
	}

	// Step 2: drain the lists, preferring the configured one.
	for e.flowHead < len(e.flowWL) || e.ssaHead < len(e.ssaWL) {
		e.stats.Steps++
		if e.cfg.MaxEngineSteps > 0 && e.stats.Steps > int64(e.cfg.MaxEngineSteps) {
			e.abort = abortStepBudget
			return
		}
		if e.stats.Steps&cancelCheckMask == 0 && e.ctx.Err() != nil {
			e.abort = abortCancelled
			return
		}
		flowAvail := e.flowHead < len(e.flowWL)
		ssaAvail := e.ssaHead < len(e.ssaWL)
		if (e.cfg.FlowFirst && flowAvail) || !ssaAvail {
			ed := e.flowWL[e.flowHead]
			e.flowWL[e.flowHead] = nil
			e.flowHead++
			e.inFlow[ed.ID] = false
			if e.edgeFreq[ed.ID] > 0 {
				e.visitBlock(ed.To) // step 3
			}
			e.compactQueues()
			continue
		}
		in := e.ssaWL[e.ssaHead]
		e.ssaWL[e.ssaHead] = nil
		e.ssaHead++
		e.inSSA[in.Idx] = false
		e.processSSAItem(in) // steps 4–7
		e.compactQueues()
	}
	e.finalize()
}

// visitBlock implements step 3: on first visit evaluate every expression
// in the node, afterwards only the φ-functions; the terminator's out-edge
// probabilities are refreshed either way because the node frequency may
// have changed.
func (e *engine) visitBlock(b *ir.Block) {
	e.stats.FlowVisits++
	first := !e.visited[b.ID]
	e.visited[b.ID] = true
	for _, in := range b.Instrs {
		if first || in.Op == ir.OpPhi {
			e.evalInstr(in)
		}
	}
}

// processSSAItem handles one SSA worklist entry (steps 4–7).
func (e *engine) processSSAItem(in *ir.Instr) {
	if in.Op == ir.OpPhi {
		e.evalInstr(in)
		return
	}
	// Step 6 guard: evaluate only if the node can execute.
	b := in.Block
	if !e.visited[b.ID] {
		return // will be evaluated when a flow edge reaches it
	}
	if b != e.f.Entry && e.blockFreq(b) <= 0 {
		return
	}
	e.evalInstr(in)
}

// setValue records a freshly evaluated result, applying the MaxEvals
// widening backstop, and propagates along SSA edges on change.
func (e *engine) setValue(in *ir.Instr, nv vrange.Value) {
	old := e.val[in.Dst]
	if nv.Equal(old) {
		return
	}
	if !nv.SameShape(old) {
		e.evalCount[in.Idx]++
		if int(e.evalCount[in.Idx]) > e.cfg.MaxEvals {
			e.stats.Widens++
			nv = vrange.BottomValue()
			if nv.Equal(old) {
				return
			}
		}
	} else {
		// Probability-only refinement. The branch-prob → frequency →
		// φ-weight feedback can oscillate without ever changing range
		// structure; a generous churn budget lets genuine refinements
		// settle and then freezes the value near its fixpoint. The
		// counter saturates one past the budget.
		if e.probCount[in.Idx] <= probChurnBudget {
			e.probCount[in.Idx]++
		}
		if e.probCount[in.Idx] > probChurnBudget {
			e.val[in.Dst] = nv
			return // keep the latest value, stop propagating the ripple
		}
	}
	e.val[in.Dst] = nv
	e.pushUses(in.Dst)
}

// Budgets bounding the probability-refinement feedback (structure changes
// are bounded separately by Config.MaxEvals).
const (
	probChurnBudget    = 256
	branchUpdateBudget = 256
)

// symVal returns the operand's value, substituting the symbolic point
// range {1[r:r:0]} for ⊥ operands when symbolic ranges are enabled — this
// is how values "specified relative to others" (§3.4) arise. The
// substitute of each register is derived once per run.
func (e *engine) symVal(r ir.Reg) vrange.Value {
	v := e.val[r]
	if v.IsBottom() && e.cfg.Range.Symbolic {
		return e.point(int(r), func() vrange.Value { return e.calc.SymbolicVal(e.rootOf(r)) })
	}
	return v
}

// point returns the run's memoized point value under key, deriving it on
// the first call.
func (e *engine) point(key int, derive func() vrange.Value) vrange.Value {
	m := e.memo
	if i := m.point[key]; i > 0 {
		return m.points[i-1]
	}
	v := derive()
	m.points = append(m.points, v)
	m.point[key] = int32(len(m.points))
	return v
}

// rootOf chases copies, assertion parents and identity-φs to the
// canonical ancestor register, so that symbolic bounds created from
// different copies or π-refinements of the same runtime value compare
// equal. Assertions are runtime identities (their refinement lives in the
// value table, not in the symbolic name), and a φ whose operands all
// chase back to the φ itself or to one common register — the shape
// assertion-versioning creates at loop headers for unmodified variables —
// is an identity too.
func (e *engine) rootOf(r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		d := e.f.Defs[r]
		if d == nil {
			return r
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		case ir.OpPhi:
			origin := ir.None
			distinct := true
			for _, a := range d.Args {
				o := e.chaseCopyAssert(a, r)
				if o == r {
					continue // refinement of the φ itself
				}
				if origin == ir.None {
					origin = o
				} else if origin != o {
					distinct = false
					break
				}
			}
			if !distinct || origin == ir.None {
				return r
			}
			r = origin
		default:
			return r
		}
	}
	return r
}

// chaseCopyAssert follows copies and assertion parents only, stopping at
// any other definition (including φs). self short-circuits cycles back to
// the φ being resolved.
func (e *engine) chaseCopyAssert(r, self ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		if r == self {
			return self
		}
		d := e.f.Defs[r]
		if d == nil {
			return r
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		default:
			return r
		}
	}
	return r
}

// evalInstr evaluates one instruction (the "symbolic execution" of §3.2).
func (e *engine) evalInstr(in *ir.Instr) {
	switch in.Op {
	case ir.OpPhi:
		e.evalPhi(in)
		return
	case ir.OpBr, ir.OpJmp:
		e.updateOutEdges(in.Block)
		return
	case ir.OpRet, ir.OpPrint, ir.OpStore:
		return
	}
	e.stats.ExprEvals++
	var nv vrange.Value
	switch in.Op {
	case ir.OpConst:
		nv = e.calc.ConstVal(in.Const)
	case ir.OpParam:
		nv = e.in.param(in.ArgIndex)
	case ir.OpInput, ir.OpLoad, ir.OpAlloc:
		// Loads are the paper's canonical ⊥ producers (§3.5); input() and
		// array references are equally opaque.
		nv = vrange.BottomValue()
	case ir.OpCopy:
		nv = e.symVal(in.A)
	case ir.OpNeg:
		nv = e.calc.Neg(e.val[in.A])
	case ir.OpNot:
		nv = e.calc.Not(e.val[in.A])
	case ir.OpBin:
		a, b := e.symVal(in.A), e.symVal(in.B)
		if in.BinOp.IsComparison() {
			// Correlation-preserving comparison (§3.4): when one side's
			// range is expressed relative to the other side's root value
			// (e.g. j ∈ [0:i:1] compared against i), compare against the
			// symbolic point rather than the root's numeric hull — the
			// uniform-independence model would discard the correlation.
			ra, rb := e.rootOf(in.A), e.rootOf(in.B)
			if refersTo(a, rb) {
				b = e.calc.SymbolicVal(rb)
			} else if refersTo(b, ra) {
				a = e.calc.SymbolicVal(ra)
			}
		}
		nv = e.calc.Apply(in.BinOp, a, b)
	case ir.OpAssert:
		e.stats.Asserts++
		var other vrange.Value
		if in.B != ir.None {
			other = e.symVal(in.B)
		} else {
			other = e.point(e.f.NumRegs+in.Idx, func() vrange.Value { return e.calc.ConstVal(in.Const) })
		}
		parent := e.val[in.A]
		nv = e.calc.Refine(parent, in.BinOp, other)
		if vrange.RefineGain(parent, nv) {
			e.stats.AssertTightens++
		}
	case ir.OpCall:
		callee := e.prog().ByName[in.Callee]
		if callee == nil {
			nv = vrange.BottomValue()
		} else {
			nv = e.in.ret(callee)
		}
	default:
		nv = vrange.BottomValue()
	}
	e.setValue(in, nv)
}

// evalPhi implements steps 4 and 5: loop-carried φs are derived, others
// merge their operands weighted by in-edge probability. The paper's
// footnote 4 short-circuits families of assertions of a common parent.
func (e *engine) evalPhi(phi *ir.Instr) {
	e.stats.PhiEvals++
	b := phi.Block

	hasBack := false
	for _, pe := range b.Preds {
		if e.backEdges[pe.ID] {
			hasBack = true
			break
		}
	}
	if hasBack && e.cfg.Derivation && !e.deriveFailed[phi.Idx] {
		v, st := e.derive(phi)
		switch st {
		case deriveOK:
			if !e.derived[phi.Idx] {
				e.stats.DeriveHits++
			}
			e.derived[phi.Idx] = true
			e.setValue(phi, v)
			return
		case deriveNotReady:
			// Not enough information yet (e.g. the increment constant's
			// block has not executed). Fall through to the optimistic
			// merge of the executable in-edges so the loop body becomes
			// reachable; derivation is retried when the consulted values
			// lower.
		case deriveFail:
			e.stats.DeriveMiss++
			e.deriveFailed[phi.Idx] = true
			// A φ may have derived earlier under transient information
			// (e.g. an increment operand that was still a lone constant)
			// and fail to re-derive once the operand lowers. Clearing the
			// derived mark hands the φ back to merge-based evaluation —
			// leaving it would freeze a stale optimistic value.
			e.derived[phi.Idx] = false
			e.derivedStrict[phi.Idx] = false
		}
	}
	if e.derived[phi.Idx] {
		// Derived expressions are not re-evaluated by merging (§3.3 step
		// 4); value updates happen through re-derivation above.
		return
	}

	// Step 5: executable in-edges only.
	ops := e.phiOps[:0]
	for i, pe := range b.Preds {
		w := e.edgeFreq[pe.ID]
		if w <= 0 {
			continue
		}
		ops = append(ops, phiOp{phi.Args[i], w})
	}
	e.phiOps = ops
	if len(ops) == 0 {
		return // not yet executable: stays ⊤
	}

	// Footnote 4: if every executable operand is an assertion of (or copy
	// of) one common parent, the merge is exactly the parent's range.
	origin := e.assertOrigin(ops[0].reg)
	same := origin != ir.None && origin != phi.Dst
	for _, o := range ops[1:] {
		if e.assertOrigin(o.reg) != origin {
			same = false
			break
		}
	}
	e.stats.PhiMerges++
	if same && len(ops) > 1 {
		e.setValue(phi, e.calc.MergeAssertionFamily(e.val[origin]))
		return
	}

	items := e.phiItems[:0]
	for _, o := range ops {
		items = append(items, vrange.Weighted{Val: e.val[o.reg], W: o.w})
	}
	e.phiItems = items
	nv := e.calc.Merge(items)
	if vrange.MergeLoss(nv, items) {
		e.stats.PhiHulls++
	}
	e.setValue(phi, nv)
}

// copyRoot chases copy chains only (no assertion unwrapping).
func (e *engine) copyRoot(r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		d := e.f.Defs[r]
		if d == nil || d.Op != ir.OpCopy {
			return r
		}
		r = d.A
	}
	return r
}

// assertOrigin finds the nearest π-parent of a φ operand: copies are
// transparent, and exactly one assertion level is unwrapped, so that a
// family of complementary assertions maps to its immediate common parent
// (the most refined shared value) rather than to the top of the chain.
func (e *engine) assertOrigin(r ir.Reg) ir.Reg {
	r = e.copyRoot(r)
	d := e.f.Defs[r]
	if d != nil && d.Op == ir.OpAssert {
		return e.copyRoot(d.Parent)
	}
	return r
}

// updateOutEdges re-examines a block's conditional branch (step 7). A
// materially changed probability triggers a frequency update from the
// block, which schedules every flow edge whose frequency moved; past the
// update budget the probability is kept but only marked for the next
// update. Jump frequencies need no separate handling: the solver owns
// them.
func (e *engine) updateOutEdges(b *ir.Block) {
	t := b.Terminator()
	if t == nil || t.Op != ir.OpBr {
		return
	}
	p, src, ok := e.branchProb(t)
	if !ok {
		return
	}
	old := e.prob[b.ID] // NaN until the first evaluation: never close
	e.src[b.ID] = src
	if math.Abs(old-p) <= 1e-9 {
		return
	}
	if e.brUpdates[b.ID] > branchUpdateBudget {
		e.prob[b.ID] = p // keep the freshest value, stop re-solving
		e.solver.Mark(b)
		return
	}
	e.brUpdates[b.ID]++
	e.prob[b.ID] = p
	e.recomputeFreqs(b)
}

// branchProb determines the probability of taking the branch by examining
// the controlling variable's value range (step 7), falling back to the
// heuristic hook for ⊥.
func (e *engine) branchProb(t *ir.Instr) (float64, PredictionSource, bool) {
	cv := e.val[t.A]
	switch cv.Kind() {
	case vrange.Top:
		return 0, ByDefault, false // not yet evaluated
	case vrange.Bottom:
		return e.fallback(t), ByHeuristic, true
	}
	if cv.IsInfeasible() {
		return 0, ByDefault, false
	}
	p, ok := e.calc.ProbTrue(cv)
	if !ok {
		return e.fallback(t), ByHeuristic, true
	}
	return p, ByRange, true
}

// fallback is the heuristic probability of branch t, asked of
// Config.Fallback at most once per analysis: the hook is a pure function
// of the function and the branch, and the answer stays in the function's
// scratch across its runs.
func (e *engine) fallback(t *ir.Instr) float64 {
	if e.cfg.Fallback == nil {
		return 0.5
	}
	p := &e.sc.fallback[t.Block.ID]
	if math.IsNaN(*p) {
		*p = e.cfg.Fallback(e.f, t)
	}
	return *p
}

// finalize assigns heuristic probabilities to branches that never received
// one (unreachable code or ⊤ conditions left by interprocedural cycles) and
// zeroes the unused entries of the other blocks.
func (e *engine) finalize() {
	for _, b := range e.f.Blocks {
		if !math.IsNaN(e.prob[b.ID]) {
			continue
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
			e.prob[b.ID], e.src[b.ID] = e.fallback(t), ByDefault
		} else {
			e.prob[b.ID] = 0
		}
	}
}

func (e *engine) result() *FuncResult {
	return &FuncResult{
		Fn:       e.f,
		val:      e.val,
		EdgeFreq: e.edgeFreq,
		Prob:     e.prob,
		Source:   e.src,
		Derived:  e.derived,
	}
}

// refersTo reports whether any bound of the value references register r.
func refersTo(v vrange.Value, r ir.Reg) bool {
	if v.Kind() != vrange.Set {
		return false
	}
	for _, rg := range v.Ranges {
		if rg.Lo.Var == r || rg.Hi.Var == r {
			return true
		}
	}
	return false
}
