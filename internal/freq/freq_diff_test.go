package freq_test

import (
	"testing"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/dom"
	"vrp/internal/freq"
	"vrp/internal/genprog"
	"vrp/internal/ir"
)

// splitmix64 gives the differential test a deterministic, platform-stable
// probability stream (math/rand sequences are outside the Go 1 promise).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// probFor derives a branch-probability source from seed: most branches get
// a pseudo-random probability in (0,1), every eighth is "unknown" so the
// zero-frequency path is exercised too. Keyed off the branch's stable
// identity (block ID) so both solvers see the same answers.
func probFor(seed uint64) freq.BranchProbFunc {
	return func(br *ir.Instr) (float64, bool) {
		r := splitmix{s: seed ^ uint64(br.Block.ID)*0x9e3779b97f4a7c15}
		v := r.next()
		if v%8 == 0 {
			return 0, false
		}
		return float64(v%1000+1) / 1002.0, true
	}
}

// diffOne checks Compute against the ReferenceCompute oracle bit-for-bit
// on every function of a compiled program, under several seeds and a
// repeated solve (the engine re-solves on one Solver; buffer reuse must
// not drift).
func diffOne(t *testing.T, name string, p *ir.Program) {
	t.Helper()
	for _, f := range p.Funcs {
		tree := dom.New(f)
		loops := dom.FindLoops(f, tree)
		back := dom.BackEdges(f, tree)
		s := freq.NewSolver(f, tree, loops, back)
		for seed := uint64(1); seed <= 3; seed++ {
			prob := probFor(seed)
			ref := s.ReferenceCompute(back, prob)
			for round := 0; round < 2; round++ {
				got := s.Compute(prob)
				for i := range ref.Block {
					if got.Block[i] != ref.Block[i] {
						t.Fatalf("%s/%s seed %d round %d: block %d freq %v, reference %v",
							name, f.Name, seed, round, i, got.Block[i], ref.Block[i])
					}
				}
				for i := range ref.Edge {
					if got.Edge[i] != ref.Edge[i] {
						t.Fatalf("%s/%s seed %d round %d: edge %d freq %v, reference %v",
							name, f.Name, seed, round, i, got.Edge[i], ref.Edge[i])
					}
				}
			}
		}
	}
}

// TestComputeMatchesReferenceCorpus runs the differential check over every
// corpus program.
func TestComputeMatchesReferenceCorpus(t *testing.T) {
	for _, cp := range corpus.All() {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		diffOne(t, cp.Name, p.IR)
	}
}

// TestComputeMatchesReferenceGenerated runs the differential check over
// the generated benchmark tier, whose loop nests are deeper than anything
// in the hand corpus.
func TestComputeMatchesReferenceGenerated(t *testing.T) {
	p, err := vrp.Compile("gen.mini", genprog.Source(genprog.Default()))
	if err != nil {
		t.Fatal(err)
	}
	diffOne(t, "gen", p.IR)
}

// TestComputeMatchesReferencePresets runs the differential check over
// every genprog shape preset, covering the mega-scale CFG/call-graph
// structures (recursion rings, wide SCCs, deep loop nests, padded
// bodies) the default tier does not reach. The 100k tier reuses the
// 10k shape at a larger size, so the factored solver sees every distinct
// structure without mega-program test runtimes.
func TestComputeMatchesReferencePresets(t *testing.T) {
	for _, name := range []string{"10k", "wide-scc", "deep-loop", "recursive"} {
		cfg, ok := genprog.Preset(name)
		if !ok {
			t.Fatalf("unknown preset %q", name)
		}
		p, err := vrp.Compile(name+".mini", genprog.Source(cfg))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffOne(t, name, p.IR)
	}
}
