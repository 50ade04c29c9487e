package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
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

// QuickSizes is the abbreviated series for CI smoke runs (vrpbench -bench
// -quick): small enough to finish in seconds, large enough to exercise the
// parallel schedule and the skip path.
var QuickSizes = []int{1, 4, 8}

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

// DriverPoint is one measurement of the parallel incremental driver
// against the sequential schedule on a merged program.
type DriverPoint struct {
	Name    string  `json:"name"`
	Instrs  int     `json:"instrs"`
	Funcs   int     `json:"funcs"`
	SeqNsOp int64   `json:"seq_ns_per_op"`
	ParNsOp int64   `json:"par_ns_per_op"`
	Speedup float64 `json:"speedup"`

	// Heap cost of one sequential analysis (runtime.MemStats deltas over
	// the timed runs): allocations and bytes per Analyze call.
	AllocsOp int64 `json:"allocs_per_op"`
	BytesOp  int64 `json:"bytes_per_op"`
	Passes   int   `json:"passes"`
	Analyzed int64 `json:"funcs_analyzed"`
	Skipped  int64 `json:"funcs_skipped"`

	// Converged distinguishes a true fixpoint from a MaxPasses cutoff
	// (where ⊤ values were demoted); a benchmark point that did not
	// converge is timing a different amount of work.
	Converged bool `json:"converged"`

	// Telemetry totals from a separate instrumented run of the same
	// program (telemetry stays off during the timed runs, so the ns/op
	// columns measure the disabled path). PassWallNs is the wall clock of
	// each interprocedural pass of that run, read from its "pass N" spans.
	EngineSteps   int64   `json:"engine_steps"`
	FlowPeak      int64   `json:"flow_peak"`
	SSAPeak       int64   `json:"ssa_peak"`
	Widens        int64   `json:"widens"`
	BoundaryDrops int64   `json:"boundary_drops"`
	PassWallNs    []int64 `json:"pass_wall_ns"`
}

// DriverScaling times the analysis of merged corpus programs of growing
// size under Workers: 1 (sequential) and Workers: 0 (one per CPU),
// reporting the best of iters runs each. Both schedules produce
// bit-identical results; the dirty-set counters come from the parallel
// run (they are identical for both by construction).
func DriverScaling(sizes []int, iters int) ([]DriverPoint, error) {
	if iters < 1 {
		iters = 1
	}
	all := corpus.All()
	var pts []DriverPoint
	for _, k := range sizes {
		if k > len(all) {
			k = len(all)
		}
		mp, err := mergedProgram(all[:k])
		if err != nil {
			return nil, err
		}
		seqCfg := defaultEngineConfig(mp)
		seqCfg.Workers = 1
		parCfg := defaultEngineConfig(mp)
		parCfg.Workers = 0
		seqNs, seqAllocs, seqBytes, err := measureAnalyze(mp, seqCfg, iters)
		if err != nil {
			return nil, err
		}
		parNs, _, _, err := measureAnalyze(mp, parCfg, iters)
		if err != nil {
			return nil, err
		}
		telCfg := parCfg
		telCfg.Telemetry = telemetry.New()
		telCfg.Trace = telemetry.NewTrace()
		res, err := corevrp.Analyze(mp, telCfg)
		if err != nil {
			return nil, err
		}
		pt := DriverPoint{
			Name:      fmt.Sprintf("merged-%d", k),
			Instrs:    mp.NumInstrs(),
			Funcs:     len(mp.Funcs),
			SeqNsOp:   seqNs,
			ParNsOp:   parNs,
			Speedup:   float64(seqNs) / float64(parNs),
			AllocsOp:  seqAllocs,
			BytesOp:   seqBytes,
			Passes:    res.Stats.Passes,
			Analyzed:  res.Stats.FuncsAnalyzed,
			Skipped:   res.Stats.FuncsSkipped,
			Converged: res.Stats.Converged,
		}
		if snap := res.Telemetry; snap != nil {
			pt.EngineSteps = snap.Totals.Steps
			pt.FlowPeak = snap.Totals.FlowPeak
			pt.SSAPeak = snap.Totals.SSAPeak
			pt.Widens = snap.Totals.Widens
			pt.BoundaryDrops = snap.BoundaryDrops
		}
		for _, sp := range telCfg.Trace.Spans() {
			if sp.Parent == telemetry.NoSpan && strings.HasPrefix(sp.Name, "pass ") {
				pt.PassWallNs = append(pt.PassWallNs, sp.Dur)
			}
		}
		pts = append(pts, pt)
		if k == len(all) {
			break
		}
	}
	return pts, nil
}

// measureAnalyze runs Analyze iters times and reports the best wall-clock
// plus the mean heap cost per run (runtime.MemStats deltas across the
// whole batch — the binaries cannot use testing.AllocsPerRun). A GC fence
// before each reading keeps unrelated garbage out of the deltas.
func measureAnalyze(p *ir.Program, cfg corevrp.Config, iters int) (nsOp, allocsOp, bytesOp int64, err error) {
	if iters < 1 {
		iters = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := int64(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := corevrp.Analyze(p, cfg); err != nil {
			return 0, 0, 0, err
		}
		ns := time.Since(start).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	runtime.ReadMemStats(&m1)
	n := int64(iters)
	return best, int64(m1.Mallocs-m0.Mallocs) / n, int64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
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
