package freq

import (
	"vrp/internal/dom"
	"vrp/internal/ir"
)

// ReferenceCompute solves the same equations as Compute by the
// filter-every-block scan the CSR factorization replaced, into freshly
// allocated buffers, given the function's back-edge set. It is the
// differential-testing oracle for the CSR solver: Compute must match it
// bit-for-bit on every function (freq_diff_test.go), since both run the
// identical floating-point operation sequence.
func (s *Solver) ReferenceCompute(back []bool, prob BranchProbFunc) *Frequencies {
	fr := &Frequencies{
		Block: make([]float64, len(s.f.Blocks)),
		Edge:  make([]float64, len(s.f.Edges)),
	}
	cp := make([]float64, len(s.f.Blocks))
	for _, l := range s.ls {
		s.refPropagate(back, prob, fr, cp, l.Header, l)
		c := 0.0
		for _, be := range l.BackEdge {
			c += fr.Edge[be.ID]
		}
		if c > MaxCyclic {
			c = MaxCyclic
		}
		cp[l.Header.ID] = c
	}
	s.refPropagate(back, prob, fr, cp, s.f.Entry, nil)
	return fr
}

// refPropagate runs one acyclic propagation by scanning every block of
// the function and filtering by loop membership.
func (s *Solver) refPropagate(back []bool, prob BranchProbFunc, fr *Frequencies, cp []float64, head *ir.Block, region *dom.Loop) {
	for _, b := range s.f.Blocks {
		if region != nil && !region.Contains(b.ID) {
			continue
		}
		var freqv float64
		if b == head {
			freqv = 1
		} else {
			for _, pe := range b.Preds {
				if back[pe.ID] || (region != nil && !region.Contains(pe.From.ID)) {
					continue
				}
				freqv += fr.Edge[pe.ID]
			}
			if s.isHdr[b.ID] {
				c := cp[b.ID]
				if c > MaxCyclic {
					c = MaxCyclic
				}
				freqv /= 1 - c
			}
		}
		fr.Block[b.ID] = freqv
		for _, se := range b.Succs {
			p, known := refEdgeProb(se, prob)
			if !known {
				fr.Edge[se.ID] = 0
				continue
			}
			fr.Edge[se.ID] = freqv * p
		}
	}
}

// refEdgeProb is the probability of leaving a block along one out-edge.
func refEdgeProb(e *ir.Edge, prob BranchProbFunc) (float64, bool) {
	t := e.From.Terminator()
	if t == nil {
		return 0, false
	}
	switch t.Op {
	case ir.OpJmp:
		return 1, true
	case ir.OpBr:
		p, known := prob(t)
		if !known {
			return 0, false
		}
		if e.Kind == ir.EdgeTrue {
			return p, true
		}
		return 1 - p, true
	}
	return 0, false
}
