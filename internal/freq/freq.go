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
// The solve is factor-once, solve-many: NewSolver flattens each loop's
// condensed transition structure (and the whole-function remainder) into
// one CSR form — per region, the member blocks in reverse postorder with
// their filtered in-region forward predecessor edges and classified
// successor edges. A Compute then only walks flat int32 arrays with the
// current branch probabilities as the right-hand side; nothing about the
// elimination structure (membership filtering, back-edge tests,
// terminator classification) is recomputed per solve, so the vrp engine's
// many re-solves across passes reuse one factorization per function. The
// pre-CSR filter-every-block scan survives as the test oracle
// ReferenceCompute (reference_test.go), which the differential tests
// compare against bit-for-bit: both walks visit the same blocks and edges
// in the same order, so the floating-point operation sequence — and
// therefore every result bit — is identical.
package freq

import (
	"sync/atomic"

	"vrp/internal/dom"
	"vrp/internal/ir"
)

// Package-wide factorization/solve counters, exposed through Stats for
// benchmark assertions that repeated-pass solves reuse the factored
// structure instead of re-eliminating loops.
var (
	totalFactorizations atomic.Int64
	totalSolves         atomic.Int64
)

// Stats reports the process-wide number of CSR factorizations (one per
// NewSolver) and solves (one per Compute) performed so far. The ratio is
// the factor-once guarantee: an analysis that re-solves every pass must
// show solves ≫ factorizations.
func Stats() (factorizations, solves int64) {
	return totalFactorizations.Load(), totalSolves.Load()
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
// equations: repeated solves (the vrp engine re-solves after every
// accepted branch probability change, across every pass) reuse one CSR
// factorization and one set of buffers. A Solver is not safe for
// concurrent use.
type Solver struct {
	f     *ir.Func
	prob  BranchProbFunc // current solve's probability source
	ls    []*dom.Loop    // innermost (deepest) first
	isHdr []bool         // by block ID: block heads some loop
	cp    []float64      // by block ID: cyclic probability of that header

	// CSR factorization. Regions 0..len(ls)-1 are the loops innermost
	// first; region len(ls) is the whole function. Region r's member
	// blocks occupy positions regOff[r]..regOff[r+1] in the flat arrays,
	// in f.Blocks (reverse postorder) order — exactly the blocks, in
	// exactly the order, the reference scan visits, so the floating-point
	// operation sequence is identical and the results are bit-identical,
	// not merely close.
	regOff  []int32 // len(ls)+2: region → first position
	regHead []int32 // by region: head block ID (frequency 1 inside the region)
	blkID   []int32 // by position: block ID

	// Per-position forward predecessor edges, pre-filtered: non-back and
	// (for loop regions) source inside the region. The solve inner loop
	// is a plain sum over edge IDs — the membership and back-edge tests
	// happened once, at factor time.
	predOff  []int32
	predEdge []int32

	// Per-position successor edges in b.Succs order, each classified, and
	// the controlling branch instruction for conditional terminators.
	succOff  []int32
	succEdge []int32
	succKind []uint8
	term     []*ir.Instr // by position: OpBr terminator, nil otherwise

	// Per-loop back-edge IDs (the cyclic-probability sums), l.BackEdge order.
	cpOff  []int32
	cpEdge []int32

	fr Frequencies // reused output buffers
}

// NewSolver prepares a solver for f: it factors the loop-elimination
// structure into CSR form once, so every later Compute is a pure
// right-hand-side solve. tree/loops/back are the caller's dominator
// structures (the caller typically already owns them; pass
// dom.BackEdges(f, tree) for back). The function must be in the
// renumbered (reverse postorder) form irgen produces.
func NewSolver(f *ir.Func, tree *dom.Tree, loops *dom.LoopInfo, back map[*ir.Edge]bool) *Solver {
	s := &Solver{
		f:     f,
		isHdr: make([]bool, len(f.Blocks)),
		cp:    make([]float64, len(f.Blocks)),
		fr: Frequencies{
			Block: make([]float64, len(f.Blocks)),
			Edge:  make([]float64, len(f.Edges)),
		},
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
	backID := make([]bool, len(f.Edges))
	for e := range back {
		if back[e] {
			backID[e.ID] = true
		}
	}
	s.factor(backID)
	totalFactorizations.Add(1)
	return s
}

// factor flattens every region's propagation structure into the CSR
// arrays: member blocks, filtered forward predecessor edges, classified
// successor edges, and per-loop back-edge lists.
func (s *Solver) factor(backID []bool) {
	f := s.f
	nreg := len(s.ls) + 1
	s.regOff = make([]int32, 0, nreg+1)
	s.regHead = make([]int32, 0, nreg)
	s.predOff = append(s.predOff, 0)
	s.succOff = append(s.succOff, 0)

	addBlock := func(b *ir.Block, in []bool) {
		s.blkID = append(s.blkID, int32(b.ID))
		for _, pe := range b.Preds {
			if backID[pe.ID] || (in != nil && !in[pe.From.ID]) {
				continue
			}
			s.predEdge = append(s.predEdge, int32(pe.ID))
		}
		s.predOff = append(s.predOff, int32(len(s.predEdge)))
		t := b.Terminator()
		var term *ir.Instr
		for _, se := range b.Succs {
			kind := succNone
			if t != nil {
				switch t.Op {
				case ir.OpJmp:
					kind = succJmp
				case ir.OpBr:
					term = t
					if se.Kind == ir.EdgeTrue {
						kind = succBrTrue
					} else {
						kind = succBrFalse
					}
				}
			}
			s.succEdge = append(s.succEdge, int32(se.ID))
			s.succKind = append(s.succKind, kind)
		}
		s.succOff = append(s.succOff, int32(len(s.succEdge)))
		s.term = append(s.term, term)
	}

	in := make([]bool, len(f.Blocks))
	for _, l := range s.ls {
		s.regOff = append(s.regOff, int32(len(s.blkID)))
		s.regHead = append(s.regHead, int32(l.Header.ID))
		clear(in)
		for _, b := range f.Blocks {
			if l.Contains(b.ID) {
				in[b.ID] = true
			}
		}
		for _, b := range f.Blocks {
			if in[b.ID] {
				addBlock(b, in)
			}
		}
	}
	// Whole-function region: every block, back edges filtered only.
	s.regOff = append(s.regOff, int32(len(s.blkID)))
	s.regHead = append(s.regHead, int32(f.Entry.ID))
	for _, b := range f.Blocks {
		addBlock(b, nil)
	}
	s.regOff = append(s.regOff, int32(len(s.blkID)))

	// Per-loop back-edge lists for the cyclic-probability sums.
	s.cpOff = append(s.cpOff, 0)
	for _, l := range s.ls {
		for _, be := range l.BackEdge {
			s.cpEdge = append(s.cpEdge, int32(be.ID))
		}
		s.cpOff = append(s.cpOff, int32(len(s.cpEdge)))
	}
}

// csrPropagate runs one acyclic propagation into fr over region r's
// positions: the factored member blocks with pre-filtered predecessor
// edges. Inner loop headers are scaled by their 1/(1-cp) multiplier.
// Positions are in RPO (f.Blocks order), which top-sorts the acyclic
// remainder — back edges were dropped at factor time.
func (s *Solver) csrPropagate(fr *Frequencies, cp []float64, r int) {
	lo, hi := s.regOff[r], s.regOff[r+1]
	head := s.regHead[r]
	for pos := lo; pos < hi; pos++ {
		bid := s.blkID[pos]
		var freqv float64
		if bid == head {
			freqv = 1
		} else {
			for _, pe := range s.predEdge[s.predOff[pos]:s.predOff[pos+1]] {
				freqv += fr.Edge[pe]
			}
			if s.isHdr[bid] {
				c := cp[bid]
				if c > MaxCyclic {
					c = MaxCyclic
				}
				freqv /= 1 - c
			}
		}
		fr.Block[bid] = freqv
		ss, se := s.succOff[pos], s.succOff[pos+1]
		if ss == se {
			continue
		}
		var p float64
		known := false
		if t := s.term[pos]; t != nil {
			p, known = s.prob(t)
		}
		for i := ss; i < se; i++ {
			eid := s.succEdge[i]
			switch s.succKind[i] {
			case succJmp:
				// freqv * 1: the explicit multiply mirrors the reference
				// scan's op sequence exactly (it is bit-exact for IEEE
				// doubles, but keep the shapes aligned anyway).
				fr.Edge[eid] = freqv * 1
			case succBrTrue:
				if known {
					fr.Edge[eid] = freqv * p
				} else {
					fr.Edge[eid] = 0
				}
			case succBrFalse:
				if known {
					fr.Edge[eid] = freqv * (1 - p)
				} else {
					fr.Edge[eid] = 0
				}
			default:
				fr.Edge[eid] = 0
			}
		}
	}
}

// solve eliminates loops innermost-first into fr/cp, then propagates the
// whole function.
func (s *Solver) solve(fr *Frequencies, cp []float64) {
	for li, l := range s.ls {
		s.csrPropagate(fr, cp, li)
		c := 0.0
		for _, eid := range s.cpEdge[s.cpOff[li]:s.cpOff[li+1]] {
			c += fr.Edge[eid]
		}
		if c > MaxCyclic {
			c = MaxCyclic
		}
		cp[l.Header.ID] = c
	}
	s.csrPropagate(fr, cp, len(s.ls))
}

// Compute solves the frequency equations with the given per-branch
// probabilities. The returned Frequencies alias the Solver's internal
// buffers: they are valid until the next Compute call, and callers that
// keep them longer must copy.
func (s *Solver) Compute(prob BranchProbFunc) *Frequencies {
	totalSolves.Add(1)
	s.prob = prob
	clear(s.cp)
	// Zeroed buffers make every solve identical to a fresh-allocation run
	// even on graphs where RPO does not top-sort the back-edge-free
	// remainder (memclr, no allocation).
	clear(s.fr.Block)
	clear(s.fr.Edge)
	s.solve(&s.fr, s.cp)
	s.prob = nil
	return &s.fr
}

// Compute solves the frequency equations for f given per-branch
// probabilities, with freshly allocated result buffers. One-shot
// convenience around Solver; re-solving callers should hold a Solver.
func Compute(f *ir.Func, tree *dom.Tree, loops *dom.LoopInfo, prob BranchProbFunc) *Frequencies {
	return NewSolver(f, tree, loops, dom.BackEdges(f, tree)).Compute(prob)
}
