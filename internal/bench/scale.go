package bench

import (
	"fmt"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// The corpus programs are all of comparable size, so a per-program scatter
// cannot show cost-versus-size scaling the way the paper's Figure 5 does
// (their 50 programs span two orders of magnitude). ScaledPoints rebuilds
// that axis: it merges the first K corpus programs into one whole program
// (renamed functions plus a synthetic driver main calling each sub-main)
// for growing K, and measures analysis cost against total instruction
// count. Linearity of the engine shows up as a high R² of the
// through-origin fit.

// mergedProgram compiles the given corpus programs fresh and links them
// into a single ir.Program with prefixed names.
func mergedProgram(progs []*corpus.Program) (*ir.Program, error) {
	merged := &ir.Program{ByName: map[string]*ir.Func{}}
	var subMains []string
	for k, cp := range progs {
		p, err := vrp.Compile(cp.Name+".mini", cp.Source)
		if err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("p%d_", k)
		for _, f := range p.IR.Funcs {
			f.Name = prefix + f.Name
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall {
						in.Callee = prefix + in.Callee
					}
				}
			}
			merged.Funcs = append(merged.Funcs, f)
			merged.ByName[f.Name] = f
		}
		subMains = append(subMains, prefix+"main")
	}

	// Synthetic driver: main() { p0_main(); p1_main(); ... return 0; }
	driver := &ir.Func{Name: "main", NumRegs: 1, SSA: true}
	blk := driver.NewBlock()
	driver.Entry = blk
	for _, name := range subMains {
		r := driver.NewReg()
		blk.Append(&ir.Instr{Op: ir.OpCall, Dst: r, Callee: name})
	}
	z := driver.NewReg()
	blk.Append(&ir.Instr{Op: ir.OpConst, Dst: z, Const: 0})
	blk.Append(&ir.Instr{Op: ir.OpRet, A: z})
	driver.Renumber()
	if err := driver.BuildDefUse(); err != nil {
		return nil, err
	}
	merged.Funcs = append(merged.Funcs, driver)
	merged.ByName["main"] = driver
	return merged, nil
}

// ScaledSizes is the K-prefix series used for the Figure 5/6 fits.
var ScaledSizes = []int{1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 31}

// ScaledPoints measures analysis cost on merged programs of growing size.
func ScaledPoints(subOps bool) ([]Point, error) {
	all := corpus.All()
	var pts []Point
	for _, k := range ScaledSizes {
		if k > len(all) {
			k = len(all)
		}
		mp, err := mergedProgram(all[:k])
		if err != nil {
			return nil, err
		}
		res, err := corevrp.Analyze(mp, defaultEngineConfig(mp))
		if err != nil {
			return nil, err
		}
		y := float64(res.Stats.ExprEvals + res.Stats.PhiEvals)
		if subOps {
			y = float64(res.Stats.SubOps)
		}
		pts = append(pts, Point{
			Name:   fmt.Sprintf("merged-%d", k),
			Instrs: mp.NumInstrs(),
			Y:      y,
		})
		if k == len(all) {
			break
		}
	}
	return pts, nil
}

func defaultEngineConfig(p *ir.Program) corevrp.Config {
	cfg := corevrp.DefaultConfig()
	// Match the facade default: Ball–Larus fallback.
	bl := newBallLarusFor(p)
	cfg.Fallback = bl
	return cfg
}

// newBallLarusFor adapts the heuristics package to the engine's fallback
// hook for a merged program.
func newBallLarusFor(p *ir.Program) corevrp.FallbackFunc {
	h := heuristics.NewBallLarus(p)
	return h.Prob
}
