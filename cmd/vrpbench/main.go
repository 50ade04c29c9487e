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
//	vrpbench -quality   per-suite predictor errors and VRP quality digests (BENCH_quality.json)
//
// One mode runs per invocation. -gate turns -quality into a pass/fail
// check. Giving two modes, or a setting whose mode is absent (-gate
// -fig 5, -maxevals without -quality), is a usage error (exit 2).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vrp"
	"vrp/internal/bench"
	"vrp/internal/corpus"
)

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	w := os.Stdout

	switch o.mode {
	case "quality":
		err = runQuality(w, o.qualityOut, o.qualityBase, o.gate, o.maxEvals)
	case "summary":
		err = bench.PrintSummary(w)
	case "apps":
		err = bench.PrintApplications(w)
	case "ablations":
		err = bench.PrintAblations(w)
	case "fig":
		switch o.fig {
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

// options is a parsed vrpbench command line: the one mode to run ("" =
// reproduce everything) and the settings that mode reads.
type options struct {
	mode        string // "fig", "summary", "apps", "ablations" or "quality"
	fig         int
	gate        bool
	qualityOut  string
	qualityBase string
	maxEvals    int
}

// parseArgs parses the command line and rejects what the selected mode
// would silently ignore: a second mode, or a setting that belongs to a
// mode not selected. A flag counts as given only when its value differs
// from the default, so -summary=false or -fig 0 select nothing. Errors are
// printed to out with the usage text; main exits 2 on them.
func parseArgs(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("vrpbench", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.IntVar(&o.fig, "fig", 0, "reproduce one figure (4-8); 0 = all")
	fs.Bool("summary", false, "print the §5 summary only")
	fs.Bool("apps", false, "print the §6 applications only")
	fs.Bool("ablations", false, "print the ablation table only")
	fs.BoolVar(&o.gate, "gate", false, "with -quality, exit nonzero if a gated VRP metric (err_w_pp, err_u_pp, hit_pct, certain_fraction, bottom_fraction, stale_certain) is worse than the committed baseline by more than its bound, or a baseline suite is missing")
	fs.Bool("quality", false, "score every predictor on the corpus suites and genprog presets, with VRP quality digests, emit JSON")
	fs.StringVar(&o.qualityOut, "qualityout", "BENCH_quality.json", "output path for -quality")
	fs.StringVar(&o.qualityBase, "qualitybase", "", "with -quality -gate, baseline report to gate against (default: the -qualityout path before it is overwritten)")
	fs.IntVar(&o.maxEvals, "maxevals", 0, "with -quality, override the engine's per-instruction evaluation budget (synthetic precision-regression knob for gate tests; 0 = default)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	usageErr := func(format string, a ...any) (options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(out, err)
		fs.Usage()
		return o, err
	}
	if fs.NArg() > 0 {
		return usageErr("unexpected argument %q", fs.Arg(0))
	}

	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() != f.DefValue })
	for _, m := range []string{"fig", "summary", "apps", "ablations", "quality"} {
		if !given[m] {
			continue
		}
		if o.mode != "" {
			return usageErr("-%s and -%s select different modes; give one", o.mode, m)
		}
		o.mode = m
	}
	for _, d := range []struct {
		flag, needs string
		ok          bool
	}{
		{"gate", "-quality", o.mode == "quality"},
		{"qualityout", "-quality", o.mode == "quality"},
		{"maxevals", "-quality", o.mode == "quality"},
		{"qualitybase", "-quality -gate", o.mode == "quality" && o.gate},
	} {
		if given[d.flag] && !d.ok {
			return usageErr("-%s needs %s", d.flag, d.needs)
		}
	}
	if o.mode == "fig" && (o.fig < 4 || o.fig > 8) {
		return usageErr("unknown figure %d", o.fig)
	}
	return o, nil
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
