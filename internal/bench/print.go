package bench

import (
	"fmt"
	"io"

	"vrp/internal/corpus"
)

// PrintCurves renders an error-distribution table in the layout of the
// paper's Figures 7–8: one row per predictor, one column per error
// threshold, entries in percent of branches predicted within it.
func PrintCurves(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "predictor")
	for _, th := range Thresholds {
		fmt.Fprintf(w, " <%2.0f", th)
	}
	fmt.Fprintln(w)
	for _, c := range curves {
		fmt.Fprintf(w, "%-12s", c.Predictor)
		for _, v := range c.Pct {
			fmt.Fprintf(w, " %3.0f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// PrintFigure runs one suite and prints its unweighted and weighted
// distributions (Figure 7 for the int suite, Figure 8 for fp).
func PrintFigure(w io.Writer, s corpus.Suite) error {
	evals, err := EvalSuite(s)
	if err != nil {
		return err
	}
	figure := "Figure 7 (int suite"
	if s == corpus.FPSuite {
		figure = "Figure 8 (fp suite"
	}
	PrintCurves(w, figure+", unweighted): % of branches predicted within error margin", ErrorCurves(evals, false))
	PrintCurves(w, figure+", weighted by execution count): % of branches predicted within error margin", ErrorCurves(evals, true))
	return nil
}

// PrintLinearity prints the Figure 5 or Figure 6 point series and its
// linear fit (the paper's claim: linear in the size of the program). The
// size axis comes from merged whole programs of growing size (see
// ScaledPoints); the per-benchmark scatter follows for reference.
func PrintLinearity(w io.Writer, subOps bool) error {
	if subOps {
		fmt.Fprintln(w, "Figure 6: evaluation sub-operations versus program size")
	} else {
		fmt.Fprintln(w, "Figure 5: expression evaluations versus program size")
	}
	pts, err := ScaledPoints(subOps)
	if err != nil {
		return err
	}
	fit := FitLinear(pts)
	fmt.Fprintf(w, "%-12s %10s %12s\n", "program", "instrs", "cost")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12s %10d %12.0f\n", p.Name, p.Instrs, p.Y)
	}
	fmt.Fprintf(w, "linear fit through origin: cost = %.2f * instrs, R^2 = %.3f\n", fit.Slope, fit.R2)

	evals, err := EvalAll()
	if err != nil {
		return err
	}
	per := EvalPoints(evals, subOps)
	fmt.Fprintf(w, "per-benchmark scatter (structure-dominated at this size range):\n")
	for _, p := range per {
		fmt.Fprintf(w, "  %-12s %8d %10.0f\n", p.Name, p.Instrs, p.Y)
	}
	fmt.Fprintln(w)
	return nil
}

// PrintSummary prints the §5 headline comparison: mean absolute error per
// predictor per suite, the taken/not-taken hit rate (the coarse metric of
// prior studies), and the share of branches VRP predicted from ranges
// (versus heuristic fallback).
func PrintSummary(w io.Writer) error {
	for _, s := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		evals, err := EvalSuite(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "suite %s: mean absolute prediction error (percentage points)\n", s)
		for _, weighted := range []bool{false, true} {
			me := MeanError(evals, weighted)
			label := "unweighted"
			if weighted {
				label = "weighted"
			}
			fmt.Fprintf(w, "  %-10s", label)
			for _, pred := range Predictors() {
				fmt.Fprintf(w, "  %s=%.1f", pred, me[pred])
			}
			fmt.Fprintln(w)
		}
		hr := HitRates(evals)
		fmt.Fprintf(w, "  %-10s", "hit rate")
		for _, pred := range Predictors() {
			fmt.Fprintf(w, "  %s=%.1f%%", pred, hr[pred])
		}
		fmt.Fprintln(w)
		share, n := 0.0, 0
		for _, ev := range evals {
			share += ev.VRPShare
			n++
		}
		if n > 0 {
			fmt.Fprintf(w, "  branches predicted from value ranges: %.0f%%\n", 100*share/float64(n))
		}
		fmt.Fprintln(w)
	}
	return nil
}
