// Package freq computes expected block and edge execution frequencies
// from branch probabilities, using the loop-nest propagation of Wu &
// Larus, "Static Branch Frequency and Program Profile Analysis" (MICRO
// 1994) — the technique §6 of the paper cites for turning its branch
// probabilities into execution frequency estimates.
//
// The solver is exact per-loop elimination on the condensed CFG: loops
// are eliminated innermost first, and each elimination propagates
// frequencies acyclically over the loop's own blocks (back edges
// skipped), reduces the loop to its cyclic probability cp — the mass
// flowing along back edges into the header — and replaces it, for every
// enclosing region, by the closed-form multiplier 1/(1-cp). One final
// acyclic propagation over the whole function then yields the solution
// directly; nothing iterates to convergence, so there is no geometric
// creep and no tolerance.
//
// The solve is factor-once, update what changed. NewSolver flattens each
// loop's condensed transition structure (and the whole-function
// remainder) into one CSR form: per region, the member blocks in reverse
// postorder ("positions") with their filtered in-region forward
// predecessor slots and classified successor slots. Every region keeps
// its own block and edge values between solves, so a solve is a walk
// over dirty positions: Compute marks every position dirty, and Update —
// called after one branch's probability changed — marks only that
// branch's positions. A visited position whose block value keeps its
// bits passes nothing on (unless its own branch changed); an edge whose
// bits change dirties its target's position; a loop's cyclic probability
// dirties the header's positions in the enclosing regions only when its
// bits change. Following Di Pierro & Wiklicky's view of the solve as a
// linear system, one changed branch probability changes one row, and the
// walk touches only what that row reaches.
//
// Positions are visited in reverse postorder, which top-sorts each
// region's forward edges on the reducible graphs irgen produces, so a
// position's predecessors are final before it is visited and the
// floating-point operation sequence of every visited position is exactly
// a full solve's: an update is bit-identical to a fresh Compute, not
// merely close. A CFG whose reverse postorder does not top-sort its
// forward edges gets full walks from Update too. The pre-CSR
// filter-every-block scan survives as the test oracle ReferenceCompute
// (reference_test.go), which the differential tests compare against
// bit-for-bit.
package freq

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"vrp/internal/dom"
	"vrp/internal/ir"
)

// Package-wide work counters, exposed through Stats and Positions for
// benchmark assertions that repeated solves reuse the factored structure
// and walk only what changed.
var (
	totalFactorizations atomic.Int64
	totalSolves         atomic.Int64
	totalVisited        atomic.Int64
	totalPositions      atomic.Int64
)

// Stats reports the process-wide number of CSR factorizations (one per
// NewSolver) and solves (one per Compute or Update) performed so far. The
// ratio is the factor-once guarantee: an analysis that re-solves every
// pass must show solves ≫ factorizations.
func Stats() (factorizations, solves int64) {
	return totalFactorizations.Load(), totalSolves.Load()
}

// Positions reports the process-wide number of region positions the
// solves so far visited, and the number full walks would have visited
// (every position of the solver, once per solve). The ratio is the
// incremental guarantee: an Update visits only what its change reaches.
func Positions() (visited, full int64) {
	return totalVisited.Load(), totalPositions.Load()
}

// BranchProbFunc returns the probability of the true out-edge of a
// conditional branch. known=false means the branch has not been predicted
// (yet): its successors receive zero frequency, which the vrp engine uses
// as "not yet executable".
type BranchProbFunc func(br *ir.Instr) (p float64, known bool)

// Frequencies holds expected executions per function invocation.
type Frequencies struct {
	Block []float64 // by block ID
	Edge  []float64 // by edge ID
}

// MaxCyclic caps a loop's cyclic probability: 1/(1-cp) stays below 2^20
// even for loops predicted to run "forever".
const MaxCyclic = 1 - 1.0/(1<<20)

// Successor edge classification, factored at NewSolver time so a solve
// never re-inspects terminators.
const (
	succNone    uint8 = iota // no probability source: edge frequency 0
	succJmp                  // unconditional: probability 1
	succBrTrue               // conditional, true edge: probability p
	succBrFalse              // conditional, false edge: probability 1-p
)

// Solver carries the factored per-function structure of the frequency
// equations and the last solve's region-local values: repeated solves
// (the vrp engine re-solves after every accepted branch probability
// change, across every pass) reuse one CSR factorization, one set of
// buffers, and everything the change did not reach. A Solver is not
// safe for concurrent use.
type Solver struct {
	f     *ir.Func
	prob  BranchProbFunc // the last Compute's probability source
	ls    []*dom.Loop    // innermost (deepest) first
	isHdr []bool         // by block ID: block heads some loop
	cp    []float64      // by block ID: cyclic probability of that header
	term  []*ir.Instr    // by block ID: OpBr terminator, nil otherwise

	// topo reports that every forward predecessor slot precedes its
	// target in its region, so visiting dirty positions in order is
	// exact; without it every solve is a full walk.
	topo bool

	// CSR factorization. Regions 0..len(ls)-1 are the loops innermost
	// first; region len(ls) is the whole function. Region r's member
	// blocks occupy positions regOff[r]..regOff[r+1] in the flat arrays,
	// in f.Blocks (reverse postorder) order — exactly the blocks, in
	// exactly the order, the reference scan visits.
	regOff  []int32 // len(ls)+2: region → first position
	regHead []int32 // by region: head block ID (frequency 1 inside the region)
	blkID   []int32 // by position: block ID
	posVal  []int32 // by position: index into bval

	// Per-position forward predecessors, pre-filtered (non-back and, for
	// loop regions, source inside the region) and resolved to the value
	// slots their sources write in the same region: the solve's inner
	// loop is a plain sum.
	predOff []int32
	predVal []int32 // index into eval

	// Per-position successor edges in b.Succs order, classified, with the
	// value slot each writes and the position in the same region whose
	// predecessor sum reads it (-1: none).
	succOff  []int32
	succVal  []int32 // index into eval; the edge ID in the function region
	succKind []uint8
	succPos  []int32

	// Per-loop back-edge value slots (the cyclic-probability sums), in
	// l.BackEdge order.
	cpOff []int32
	cpVal []int32

	// By block ID: the block's positions, one per region containing it,
	// in region order.
	blkPosOff []int32
	blkPos    []int32

	// Region-local values. The function region's come first, by block
	// and edge ID, so fr aliases them; eval[len(f.Edges)] is a constant 0
	// (what a full solve reads through a predecessor not yet written).
	bval []float64
	eval []float64
	fr   Frequencies

	dirty   []uint64 // by position: input changed since the last solve
	brDirty []bool   // by block ID: branch probability changed since the last solve
	pend    []int32  // blocks with brDirty set
	changed []int32  // the last solve's changed function-region edges
}

// NewSolver prepares a solver for f: it factors the loop-elimination
// structure into CSR form once, so every later Compute or Update is a
// pure right-hand-side solve. tree/loops/back are the caller's dominator
// structures (the caller typically already owns them; pass
// dom.BackEdges(f, tree) for back). The function must be in the
// renumbered (reverse postorder) form irgen produces.
func NewSolver(f *ir.Func, tree *dom.Tree, loops *dom.LoopInfo, back []bool) *Solver {
	s := &Solver{
		f:       f,
		isHdr:   make([]bool, len(f.Blocks)),
		cp:      make([]float64, len(f.Blocks)),
		term:    make([]*ir.Instr, len(f.Blocks)),
		brDirty: make([]bool, len(f.Blocks)),
	}
	// Loops innermost (deepest) first, preserving the original tie order.
	s.ls = append([]*dom.Loop(nil), loops.Loops...)
	for i := 0; i < len(s.ls); i++ {
		for j := i + 1; j < len(s.ls); j++ {
			if s.ls[j].Depth > s.ls[i].Depth {
				s.ls[i], s.ls[j] = s.ls[j], s.ls[i]
			}
		}
	}
	for _, l := range loops.Loops {
		s.isHdr[l.Header.ID] = true
	}
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
			s.term[b.ID] = t
		}
	}
	s.factor(back)
	totalFactorizations.Add(1)
	return s
}

// factor flattens every region's propagation structure into the CSR
// arrays: member blocks, predecessor and successor value slots,
// classified successors, per-loop back-edge slots and each block's
// positions.
func (s *Solver) factor(back []bool) {
	f := s.f
	nb, ne := len(f.Blocks), len(f.Edges)
	nreg := len(s.ls) + 1
	s.regOff = make([]int32, 0, nreg+1)
	s.regHead = make([]int32, 0, nreg)
	s.cpOff = make([]int32, 1, nreg)
	s.predOff = append(s.predOff, 0)
	s.succOff = append(s.succOff, 0)
	s.topo = true

	in := make([]bool, nb)       // by block ID: member of the current region
	posOf := make([]int32, nb)   // by block ID: position in the current region
	slotOf := make([]int32, ne)  // by edge ID: successor slot in the current region
	lastVal := make([]int32, ne) // by edge ID: value slot last written, in region order
	zero := int32(ne)            // the constant-0 value slot
	for i := range lastVal {
		lastVal[i] = zero
	}
	nextB, nextE := int32(nb), zero+1 // next loop-region value slots

	region := func(head int32, l *dom.Loop) {
		fn := l == nil
		lo := int32(len(s.blkID))
		s.regOff = append(s.regOff, lo)
		s.regHead = append(s.regHead, head)
		// Pass 1: positions and successor slots.
		for _, b := range f.Blocks {
			in[b.ID] = fn || l.Contains(b.ID)
			if !in[b.ID] {
				continue
			}
			posOf[b.ID] = int32(len(s.blkID))
			s.blkID = append(s.blkID, int32(b.ID))
			if fn {
				s.posVal = append(s.posVal, int32(b.ID))
			} else {
				s.posVal = append(s.posVal, nextB)
				nextB++
			}
			t := b.Terminator()
			for _, se := range b.Succs {
				kind := succNone
				if t != nil {
					switch t.Op {
					case ir.OpJmp:
						kind = succJmp
					case ir.OpBr:
						if se.Kind == ir.EdgeTrue {
							kind = succBrTrue
						} else {
							kind = succBrFalse
						}
					}
				}
				slotOf[se.ID] = int32(len(s.succVal))
				if fn {
					s.succVal = append(s.succVal, int32(se.ID))
				} else {
					s.succVal = append(s.succVal, nextE)
					nextE++
				}
				s.succKind = append(s.succKind, kind)
				s.succPos = append(s.succPos, -1)
			}
			s.succOff = append(s.succOff, int32(len(s.succVal)))
		}
		// Pass 2: predecessor slots. A forward predecessor whose source
		// comes later in the region reads, as a full solve's shared
		// buffer would, the slot an earlier region last wrote (or 0).
		for _, b := range f.Blocks {
			if !in[b.ID] {
				continue
			}
			pos := posOf[b.ID]
			for _, pe := range b.Preds {
				if back[pe.ID] || !in[pe.From.ID] {
					continue
				}
				if posOf[pe.From.ID] < pos {
					slot := slotOf[pe.ID]
					s.predVal = append(s.predVal, s.succVal[slot])
					s.succPos[slot] = pos
				} else {
					s.topo = false
					s.predVal = append(s.predVal, lastVal[pe.ID])
				}
			}
			s.predOff = append(s.predOff, int32(len(s.predVal)))
		}
		for _, b := range f.Blocks {
			if in[b.ID] {
				for _, se := range b.Succs {
					lastVal[se.ID] = s.succVal[slotOf[se.ID]]
				}
			}
		}
		if fn {
			return
		}
		// The loop's back edges, as this region wrote them.
		for _, be := range l.BackEdge {
			if !in[be.From.ID] {
				s.topo = false
			}
			s.cpVal = append(s.cpVal, lastVal[be.ID])
		}
		s.cpOff = append(s.cpOff, int32(len(s.cpVal)))
	}
	for _, l := range s.ls {
		region(int32(l.Header.ID), l)
	}
	region(int32(f.Entry.ID), nil)
	npos := len(s.blkID)
	s.regOff = append(s.regOff, int32(npos))

	s.bval = make([]float64, nextB)
	s.eval = make([]float64, nextE)
	s.fr = Frequencies{Block: s.bval[:nb], Edge: s.eval[:ne]}
	s.dirty = make([]uint64, (npos+63)/64)

	s.blkPosOff = make([]int32, nb+1)
	for _, bid := range s.blkID {
		s.blkPosOff[bid+1]++
	}
	for i := 1; i <= nb; i++ {
		s.blkPosOff[i] += s.blkPosOff[i-1]
	}
	s.blkPos = make([]int32, npos)
	fill := slices.Clone(s.blkPosOff[:nb])
	for pos, bid := range s.blkID {
		s.blkPos[fill[bid]] = int32(pos)
		fill[bid]++
	}
}

// markBlock dirties every position of block id.
func (s *Solver) markBlock(id int32) {
	for _, pos := range s.blkPos[s.blkPosOff[id]:s.blkPosOff[id+1]] {
		s.dirty[pos>>6] |= 1 << (pos & 63)
	}
}

// nextDirty returns, and clears, the first dirty position in [from, hi),
// or hi when there is none.
func (s *Solver) nextDirty(from, hi int32) int32 {
	for w := from >> 6; w<<6 < hi; w++ {
		word := s.dirty[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word == 0 {
			continue
		}
		pos := w<<6 + int32(bits.TrailingZeros64(word))
		if pos >= hi {
			return hi
		}
		s.dirty[w] &^= 1 << (pos & 63)
		return pos
	}
	return hi
}

// walk solves every region in order. all visits every position (a full
// solve); otherwise only the dirty ones, each passing a change on only
// when bits moved. It records the function-region edges whose bits
// changed in s.changed.
func (s *Solver) walk(all bool) {
	s.changed = s.changed[:0]
	if all {
		clear(s.dirty)
	}
	nloop := int32(len(s.ls))
	var visited int64
	for r := int32(0); r <= nloop; r++ {
		lo, hi := s.regOff[r], s.regOff[r+1]
		pos := lo
		if !all {
			pos = s.nextDirty(lo, hi)
		}
		if pos >= hi {
			continue // nothing in the region changed: its cp stands
		}
		for pos < hi {
			s.visit(r, pos, all)
			visited++
			if all {
				pos++
			} else {
				pos = s.nextDirty(pos+1, hi)
			}
		}
		if r == nloop {
			break
		}
		c := 0.0
		for _, v := range s.cpVal[s.cpOff[r]:s.cpOff[r+1]] {
			c += s.eval[v]
		}
		if c > MaxCyclic {
			c = MaxCyclic
		}
		h := s.regHead[r]
		if math.Float64bits(c) == math.Float64bits(s.cp[h]) {
			continue
		}
		s.cp[h] = c
		if !all {
			// Enclosing regions come later: re-scale the header there.
			for _, p := range s.blkPos[s.blkPosOff[h]:s.blkPosOff[h+1]] {
				if p >= hi {
					s.dirty[p>>6] |= 1 << (p & 63)
				}
			}
		}
	}
	for _, id := range s.pend {
		s.brDirty[id] = false
	}
	s.pend = s.pend[:0]
	slices.Sort(s.changed)
	totalSolves.Add(1)
	totalVisited.Add(visited)
	totalPositions.Add(int64(len(s.blkID)))
}

// visit re-solves one position of region r: its block value from the
// predecessor slots (inner loop headers scaled by their 1/(1-cp)
// multiplier), then — when that value's bits moved, the block's branch
// changed, or the walk is full — its successor slots, dirtying the
// in-region target of every slot whose bits moved.
func (s *Solver) visit(r, pos int32, all bool) {
	bid := s.blkID[pos]
	var freqv float64
	if bid == s.regHead[r] {
		freqv = 1
	} else {
		for _, v := range s.predVal[s.predOff[pos]:s.predOff[pos+1]] {
			freqv += s.eval[v]
		}
		if s.isHdr[bid] {
			c := s.cp[bid]
			if c > MaxCyclic {
				c = MaxCyclic
			}
			freqv /= 1 - c
		}
	}
	bv := &s.bval[s.posVal[pos]]
	if !all && !s.brDirty[bid] && math.Float64bits(freqv) == math.Float64bits(*bv) {
		return
	}
	*bv = freqv
	ss, se := s.succOff[pos], s.succOff[pos+1]
	if ss == se {
		return
	}
	var p float64
	known := false
	if t := s.term[bid]; t != nil {
		p, known = s.prob(t)
	}
	fn := r == int32(len(s.ls))
	for i := ss; i < se; i++ {
		var nv float64
		switch s.succKind[i] {
		case succJmp:
			// freqv * 1: the explicit multiply mirrors the reference
			// scan's op sequence exactly (it is bit-exact for IEEE
			// doubles, but keep the shapes aligned anyway).
			nv = freqv * 1
		case succBrTrue:
			if known {
				nv = freqv * p
			}
		case succBrFalse:
			if known {
				nv = freqv * (1 - p)
			}
		}
		ev := &s.eval[s.succVal[i]]
		if math.Float64bits(nv) == math.Float64bits(*ev) {
			continue
		}
		*ev = nv
		if fn {
			s.changed = append(s.changed, s.succVal[i])
		}
		if t := s.succPos[i]; t >= 0 && !all {
			s.dirty[t>>6] |= 1 << (t & 63)
		}
	}
}

// Compute solves the frequency equations with the given per-branch
// probabilities, visiting every position. The returned Frequencies alias
// the Solver's internal buffers: they are valid, and kept current by
// Update, until the next Compute; callers that keep them longer must
// copy. prob stays the source Update reads.
func (s *Solver) Compute(prob BranchProbFunc) *Frequencies {
	s.prob = prob
	s.walk(true)
	return &s.fr
}

// Mark records that b's branch probability changed without re-solving:
// the next Update re-solves b as well.
func (s *Solver) Mark(b *ir.Block) {
	if !s.brDirty[b.ID] {
		s.brDirty[b.ID] = true
		s.pend = append(s.pend, int32(b.ID))
		s.markBlock(int32(b.ID))
	}
}

// Update re-solves after b's branch probability (as the last Compute's
// source now reports it) changed, and every block Marked since the last
// solve. It walks only the positions a changed input reaches, and returns
// the IDs of the edges whose frequency bits changed, ascending; the list
// is valid until the next solve. The Frequencies the last Compute
// returned hold the new solution, bit-identical to a fresh Compute's.
func (s *Solver) Update(b *ir.Block) []int32 {
	s.Mark(b)
	s.walk(!s.topo)
	return s.changed
}

// Compute solves the frequency equations for f given per-branch
// probabilities, with freshly allocated result buffers. One-shot
// convenience around Solver; re-solving callers should hold a Solver.
func Compute(f *ir.Func, tree *dom.Tree, loops *dom.LoopInfo, prob BranchProbFunc) *Frequencies {
	return NewSolver(f, tree, loops, dom.BackEdges(f, tree)).Compute(prob)
}
