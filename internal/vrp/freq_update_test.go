package vrp

import (
	"fmt"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/freq"
	"vrp/internal/genprog"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
)

// TestFreqUpdateVisitsUnderHalf is the incremental solver's work gate:
// across a whole analysis, the frequency solves of the engine visit fewer
// than half the region positions full walks would. A branch change
// re-solves only the positions downstream of it, and stops where the
// bits did not move; a solver that re-walked every position (or an
// engine that re-solved from scratch) reads 1.0. Every run's first
// solve is a full walk and counts in the total.
func TestFreqUpdateVisitsUnderHalf(t *testing.T) {
	type program struct {
		name string
		cfg  genprog.Config
	}
	gen10k, _ := genprog.Preset("10k")
	progs := []program{{"genprog/10k", gen10k}}
	for _, n := range []int{6, 24, 96} {
		progs = append(progs, program{fmt.Sprintf("diamonds/%d", n),
			genprog.Config{Seed: 0x5eed, Funcs: 8, Diamonds: n, LoopDepth: 3}})
	}
	for _, pc := range progs {
		p := compileSrc(t, pc.name+".mini", genprog.Source(pc.cfg))
		cfg := DefaultConfig()
		cfg.Workers = 1
		_, s0 := freq.Stats()
		v0, w0 := freq.Positions()
		if _, err := Analyze(p, withBallLarus(cfg, p, nil)); err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		_, s1 := freq.Stats()
		v1, w1 := freq.Positions()
		visited, full := v1-v0, w1-w0
		ratio := float64(visited) / float64(full)
		t.Logf("%s: %d solves, %d of %d positions visited (%.3f)", pc.name, s1-s0, visited, full, ratio)
		if full == 0 || 2*visited >= full {
			t.Errorf("%s: solves visited %d of %d positions (%.3f), want under half", pc.name, visited, full, ratio)
		}
	}
}

// TestFallbackOncePerBranchPerRun checks that an engine run asks
// Config.Fallback at most once per branch, however often the branch's ⊥
// condition is re-examined, and still predicts with it. The programs
// converge and telemetry is off, so nothing after the last run (the
// demotion, the quality census) asks the hook again.
func TestFallbackOncePerBranchPerRun(t *testing.T) {
	type key struct {
		run int
		fn  string
		br  *ir.Instr
	}
	progs := map[string]string{"default": genprog.Source(genprog.Default())}
	for _, cp := range corpus.All() {
		progs["corpus/"+cp.Name] = cp.Source
	}
	asked := 0
	for name, src := range progs {
		p := compileSrc(t, name+".mini", src)
		bl := heuristics.NewBallLarus(p)
		calls := map[key]int{}
		run := 0
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.testHookEngineRun = func(*ir.Func) { run++ }
		cfg.Fallback = func(f *ir.Func, br *ir.Instr) float64 {
			calls[key{run, f.Name, br}]++
			return bl.Prob(f, br)
		}
		res, err := Analyze(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Converged {
			continue
		}
		for k, n := range calls {
			if n > 1 {
				t.Fatalf("%s: run %d asked Fallback %d times for %s b%d", name, k.run, n, k.fn, k.br.Block.ID)
			}
		}
		asked += len(calls)
	}
	if asked == 0 {
		t.Fatal("no converged program asked Fallback: the check checked nothing")
	}
}
