// Command vrpbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	vrpbench            reproduce everything
//	vrpbench -fig 4     the worked example (Figure 2/3/4)
//	vrpbench -fig 5     expression evaluations vs program size
//	vrpbench -fig 6     evaluation sub-operations vs program size
//	vrpbench -fig 7     int suite error distributions (unweighted + weighted)
//	vrpbench -fig 8     fp suite error distributions
//	vrpbench -summary   §5 headline numbers: mean errors, hit rates, range share
//	vrpbench -apps      §6 applications
//	vrpbench -ablations DESIGN.md §5 ablation table
//	vrpbench -bench     machine-readable driver benchmark (BENCH_driver.json)
//	vrpbench -scale     mega-scale pipeline benchmark over generated 10k/100k/1M-instruction tiers (BENCH_scale.json)
//	vrpbench -quality   per-suite predictor errors and VRP quality digests (BENCH_quality.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"vrp"
	"vrp/internal/bench"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
)

func main() {
	var (
		fig         = flag.Int("fig", 0, "reproduce one figure (4-8); 0 = all")
		summary     = flag.Bool("summary", false, "print the §5 summary only")
		apps        = flag.Bool("apps", false, "print the §6 applications only")
		ablations   = flag.Bool("ablations", false, "print the ablation table only")
		benchMode   = flag.Bool("bench", false, "benchmark the parallel incremental driver, emit JSON")
		benchOut    = flag.String("benchout", "BENCH_driver.json", "output path for -bench")
		benchIter   = flag.Int("benchiter", 5, "timing iterations per -bench point")
		latticeRun  = flag.Bool("lattice", false, "benchmark interning on vs off, emit JSON")
		latticeOut  = flag.String("latticeout", "BENCH_lattice.json", "output path for -lattice")
		latticeGate = flag.Bool("gate", false, "with -lattice, exit nonzero if interning is slower than no-interning on any point; with -scale, exit nonzero if the 100k tier's ns/instr exceeds 2x the 10k tier's; with -quality, exit nonzero if a gated VRP metric (err_w_pp, err_u_pp, hit_pct, certain_fraction, bottom_fraction, stale_certain) is worse than the committed baseline by more than its bound, or a baseline suite is missing")
		scaleRun    = flag.Bool("scale", false, "run the mega-scale pipeline benchmark over the generated 10k/100k/1M tiers, emit JSON")
		scaleOut    = flag.String("scaleout", "BENCH_scale.json", "output path for -scale")
		scaleMax    = flag.String("scalemax", "", "with -scale, largest tier to run (e.g. 100k for CI smoke; empty = all)")
		qualityRun  = flag.Bool("quality", false, "score every predictor on the corpus suites and genprog presets, with VRP quality digests, emit JSON")
		qualityOut  = flag.String("qualityout", "BENCH_quality.json", "output path for -quality")
		qualityBase = flag.String("qualitybase", "", "with -quality -gate, baseline report to gate against (default: the -qualityout path before it is overwritten)")
		maxEvals    = flag.Int("maxevals", 0, "with -quality, override the engine's per-instruction evaluation budget (synthetic precision-regression knob for gate tests; 0 = default)")
		quick       = flag.Bool("quick", false, "with -bench/-lattice, run the abbreviated CI series (fewer sizes, 1 iteration)")
	)
	flag.Parse()
	w := os.Stdout

	var err error
	switch {
	case *benchMode:
		sizes, iters := bench.ScaledSizes, *benchIter
		if *quick {
			sizes, iters = bench.QuickSizes, 1
		}
		err = runDriverBench(w, *benchOut, sizes, iters)
	case *latticeRun:
		sizes, iters := bench.ScaledSizes, *benchIter
		if *quick {
			sizes, iters = bench.QuickSizes, 1
		}
		if *latticeGate && iters < 3 {
			// A gating run must not fail on one unlucky scheduling
			// quantum; three best-of iterations is the floor.
			iters = 3
		}
		err = runLatticeBench(w, *latticeOut, sizes, iters, *latticeGate)
	case *scaleRun:
		err = runScaleBench(w, *scaleOut, *scaleMax, *latticeGate)
	case *qualityRun:
		err = runQuality(w, *qualityOut, *qualityBase, *latticeGate, *maxEvals)
	case *summary:
		err = bench.PrintSummary(w)
	case *apps:
		err = bench.PrintApplications(w)
	case *ablations:
		err = bench.PrintAblations(w)
	case *fig != 0:
		switch *fig {
		case 4:
			err = printFig4(w)
		case 5:
			err = bench.PrintLinearity(w, false)
		case 6:
			err = bench.PrintLinearity(w, true)
		case 7:
			err = bench.PrintFigure(w, corpus.IntSuite)
		case 8:
			err = bench.PrintFigure(w, corpus.FPSuite)
		default:
			fmt.Fprintf(os.Stderr, "vrpbench: unknown figure %d\n", *fig)
			os.Exit(2)
		}
	default:
		steps := []func() error{
			func() error { return printFig4(w) },
			func() error { return bench.PrintLinearity(w, false) },
			func() error { return bench.PrintLinearity(w, true) },
			func() error { return bench.PrintFigure(w, corpus.IntSuite) },
			func() error { return bench.PrintFigure(w, corpus.FPSuite) },
			func() error { return bench.PrintSummary(w) },
			func() error { return bench.PrintApplications(w) },
			func() error { return bench.PrintAblations(w) },
		}
		for _, s := range steps {
			if err = s(); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vrpbench:", err)
		os.Exit(1)
	}
}

// driverBenchReport is the machine-readable result of -bench: the
// parallel-vs-sequential scaling curve of the analysis driver, plus the
// dirty-set work-skipping counters.
type driverBenchReport struct {
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Points     []bench.DriverPoint `json:"points"`
}

func runDriverBench(w *os.File, outPath string, sizes []int, iters int) error {
	pts, err := bench.DriverScaling(sizes, iters)
	if err != nil {
		return err
	}
	rep := driverBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Points: pts}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "driver benchmark (%d workers), best of %d:\n", rep.GOMAXPROCS, iters)
	fmt.Fprintf(w, "  %-10s %7s %6s %12s %12s %8s %10s %11s %7s %9s %8s %5s %10s %7s %6s\n",
		"program", "instrs", "funcs", "seq ns/op", "par ns/op", "speedup", "allocs/op", "bytes/op", "passes", "analyzed", "skipped", "conv", "steps", "peakWL", "widen")
	for _, p := range pts {
		conv := "yes"
		if !p.Converged {
			conv = "NO"
		}
		peak := p.FlowPeak
		if p.SSAPeak > peak {
			peak = p.SSAPeak
		}
		fmt.Fprintf(w, "  %-10s %7d %6d %12d %12d %7.2fx %10d %11d %7d %9d %8d %5s %10d %7d %6d\n",
			p.Name, p.Instrs, p.Funcs, p.SeqNsOp, p.ParNsOp, p.Speedup, p.AllocsOp, p.BytesOp,
			p.Passes, p.Analyzed, p.Skipped, conv, p.EngineSteps, peak, p.Widens)
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	return nil
}

// latticeBenchReport is the machine-readable result of -lattice: the
// intern-on vs intern-off cost comparison (BENCH_lattice.json; schema in
// EXPERIMENTS.md).
type latticeBenchReport struct {
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Points     []bench.LatticePoint `json:"points"`
}

func runLatticeBench(w *os.File, outPath string, sizes []int, iters int, gate bool) error {
	pts, err := bench.LatticeComparison(sizes, iters)
	if err != nil {
		return err
	}
	rep := latticeBenchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Points: pts}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "lattice interning benchmark (sequential), best of %d:\n", iters)
	fmt.Fprintf(w, "  %-10s %7s %12s %12s %11s %11s %10s %11s %10s %10s %11s %9s %8s %10s\n",
		"program", "instrs", "on ns/op", "off ns/op", "on allocs", "off allocs", "alloc-red",
		"arena", "skip-rate", "merge-hit", "intern-hit", "memo-hit", "peakMB", "verdict")
	var slower []string
	for _, p := range pts {
		verdict := "ok"
		if p.OnNsOp > p.OffNsOp {
			verdict = "SLOWER"
			slower = append(slower, p.Name)
		}
		fmt.Fprintf(w, "  %-10s %7d %12d %12d %11d %11d %9.1f%% %11d %9.1f%% %10d %11d %9d %8.1f %10s\n",
			p.Name, p.Instrs, p.OnNsOp, p.OffNsOp, p.OnAllocsOp, p.OffAllocsOp,
			100*p.AllocReduction, p.ArenaBytes, 100*p.ConfirmSkipRate,
			p.MergeMemoHits, p.InternHits, p.MemoHits, float64(p.PeakHeapBytes)/(1<<20), verdict)
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if gate && len(slower) > 0 {
		return fmt.Errorf("interning gate failed: interning slower than no-interning on %d of %d points: %s",
			len(slower), len(pts), strings.Join(slower, ", "))
	}
	return nil
}

// scaleBenchReport is the machine-readable result of -scale: one full
// single-shot pipeline run (lex→parse→sem→ssaform→VRP, sequential
// schedule) per generated mega-scale tier (BENCH_scale.json; schema
// vrp-scale/v1 in EXPERIMENTS.md).
type scaleBenchReport struct {
	Schema     string             `json:"schema"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Points     []bench.ScalePoint `json:"points"`
}

// runQuality evaluates prediction quality against the interpreter and
// writes BENCH_quality.json. With gate set, the committed baseline is
// read before the artifact is overwritten (from basePath if given,
// otherwise outPath) and the fresh report must not regress against it.
func runQuality(w *os.File, outPath, basePath string, gate bool, maxEvals int) error {
	var base *bench.QualityReport
	if gate {
		p := basePath
		if p == "" {
			p = outPath
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("quality gate needs a committed baseline: %w", err)
		}
		base = new(bench.QualityReport)
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("baseline %s: %w", p, err)
		}
	}
	rep, err := bench.Quality(maxEvals)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	bench.PrintQuality(w, rep)
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if gate {
		if err := bench.QualityGate(base, rep); err != nil {
			return err
		}
		fmt.Fprintln(w, "quality gate: ok")
	}
	return nil
}

func runScaleBench(w *os.File, outPath, maxTier string, gate bool) error {
	tiers := genprog.ScaleTiers()
	if maxTier != "" {
		cut := -1
		for i, t := range tiers {
			if t.Name == "gen-"+maxTier || t.Name == maxTier {
				cut = i
			}
		}
		if cut < 0 {
			return fmt.Errorf("-scalemax %q matches no scale tier", maxTier)
		}
		tiers = tiers[:cut+1]
	}
	pts, err := bench.MegaScale(tiers)
	if err != nil {
		return err
	}
	rep := scaleBenchReport{Schema: "vrp-scale/v1", GOMAXPROCS: runtime.GOMAXPROCS(0), Points: pts}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "mega-scale pipeline benchmark (sequential, single shot):\n")
	fmt.Fprintf(w, "  %-9s %8s %6s %8s %9s %9s %9s %9s %10s %10s %10s %7s %5s\n",
		"tier", "instrs", "funcs", "total", "parse", "ssa", "vrp", "ns/instr", "allocs", "allocMB", "peakMB", "passes", "conv")
	for _, p := range pts {
		conv := "yes"
		if !p.Converged {
			conv = "NO"
		}
		fmt.Fprintf(w, "  %-9s %8d %6d %7.2fs %8.3fs %8.3fs %8.2fs %9.1f %10d %10.1f %10.1f %7d %5s\n",
			p.Name, p.Instrs, p.Funcs,
			float64(p.TotalNs)/1e9, float64(p.PhaseNs["parse"])/1e9,
			float64(p.PhaseNs["ssa"])/1e9, float64(p.PhaseNs["vrp"])/1e9,
			p.NsPerInstr, p.Allocs, float64(p.AllocBytes)/(1<<20),
			float64(p.PeakHeapBytes)/(1<<20), p.Passes, conv)
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)
	if gate {
		if err := bench.ScaleGate(pts, 2.0); err != nil {
			return err
		}
		fmt.Fprintln(w, "scale gate: ok (gen-100k ns/instr within 2x gen-10k)")
	}
	return nil
}

// printFig4 reproduces the paper's worked example (Figures 2-4): the value
// ranges of x and y and the three branch probabilities 91%/20%/30%.
func printFig4(w *os.File) error {
	const src = `
func main() {
	var y = 0;
	for (var x = 0; x < 10; x++) {
		if (x > 7) { y = 1; } else { y = x; }
		if (y == 1) {
			print(y); // Block A
		}
	}
}
`
	p, err := vrp.Compile("figure2.mini", src)
	if err != nil {
		return err
	}
	a, err := p.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: results for the paper's worked example")
	fmt.Fprintln(w, "value ranges:")
	for _, v := range []string{"x.0", "x.1", "x.2", "x.3", "x.4", "x.5", "x.6", "x.7", "y.0", "y.1", "y.2", "y.3"} {
		if s, ok := a.ValueString("main", v); ok {
			fmt.Fprintf(w, "  %-5s = %s\n", v, s)
		}
	}
	fmt.Fprintln(w, "branch probabilities (paper: x<10 91%, x>7 20%, y==1 30%):")
	for _, pr := range a.Predictions() {
		fmt.Fprintf(w, "  p(true) = %.0f%%  [%s]\n", 100*pr.Prob, pr.Source)
	}
	fmt.Fprintln(w)
	return nil
}
