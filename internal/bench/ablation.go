package bench

import (
	"fmt"
	"io"

	"vrp"
	"vrp/internal/corpus"
	corevrp "vrp/internal/vrp"
)

// Variant is one analysis configuration for the ablation studies of
// DESIGN.md §5 (range budget, derivation, assertions, symbolic ranges,
// interprocedural propagation, worklist order).
type Variant struct {
	Name         string
	NoAssertions bool // requires recompilation
	Clone        bool // apply procedure cloning before analysis
	Opts         []vrp.Option
}

// Variants returns the standard ablation set.
func Variants() []Variant {
	return []Variant{
		{Name: "full"},
		{Name: "numeric-only", Opts: []vrp.Option{vrp.NumericOnly()}},
		{Name: "no-derivation", Opts: []vrp.Option{vrp.WithoutDerivation()}},
		{Name: "no-interproc", Opts: []vrp.Option{vrp.WithoutInterprocedural()}},
		{Name: "no-assertions", NoAssertions: true},
		{Name: "maxranges-1", Opts: []vrp.Option{vrp.WithMaxRanges(1)}},
		{Name: "maxranges-2", Opts: []vrp.Option{vrp.WithMaxRanges(2)}},
		{Name: "maxranges-8", Opts: []vrp.Option{vrp.WithMaxRanges(8)}},
		{Name: "maxranges-16", Opts: []vrp.Option{vrp.WithMaxRanges(16)}},
		{Name: "ssa-first", Opts: []vrp.Option{func(c *corevrp.Config) { c.FlowFirst = false }}},
		{Name: "with-cloning", Clone: true},
		// Sensitivity of the assumed magnitude substituted for unknown
		// symbolic variables (default 10, the paper's example scale).
		{Name: "assumed-T4", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 4 }}},
		{Name: "assumed-T32", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 32 }}},
		{Name: "assumed-T128", Opts: []vrp.Option{func(c *corevrp.Config) { c.Range.AssumedVarValue = 128 }}},
	}
}

// AblationRow is one variant's aggregate result over the whole corpus.
type AblationRow struct {
	Name       string
	MeanErrUnw float64 // mean absolute error, unweighted, pp
	MeanErrW   float64 // weighted
	RangeShare float64 // fraction of executed branches predicted from ranges
	ExprEvals  int64
	SubOps     int64
}

// RunAblations scores every variant over the whole corpus.
func RunAblations() ([]AblationRow, error) {
	var rows []AblationRow
	for _, v := range Variants() {
		row := AblationRow{Name: v.Name}
		var evals []*ProgramEval
		for _, cp := range corpus.All() {
			p, err := vrp.CompileWith(cp.Name+".mini", cp.Source, vrp.CompileOptions{NoAssertions: v.NoAssertions})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", v.Name, cp.Name, err)
			}
			if v.Clone {
				p.ApplyProcedureCloning()
			}
			refProf, err := p.Run(cp.Ref)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", v.Name, cp.Name, err)
			}
			a, err := p.Analyze(v.Opts...)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", v.Name, cp.Name, err)
			}
			ev := scoreBranches(p, refProf, a, nil)
			if len(ev.Records) == 0 {
				continue
			}
			evals = append(evals, ev)
			row.RangeShare += ev.VRPShare
			row.ExprEvals += ev.Stats.ExprEvals + ev.Stats.PhiEvals
			row.SubOps += ev.Stats.SubOps
		}
		if len(evals) > 0 {
			row.MeanErrUnw = MeanError(evals, false)[PredVRP]
			row.MeanErrW = MeanError(evals, true)[PredVRP]
			row.RangeShare /= float64(len(evals))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblations renders the ablation table.
func PrintAblations(w io.Writer) error {
	rows, err := RunAblations()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablations (whole corpus): mean absolute error in percentage points")
	fmt.Fprintf(w, "%-15s %8s %8s %8s %12s %12s\n", "variant", "unw", "wtd", "range%", "evals", "subops")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %8.1f %8.1f %7.0f%% %12d %12d\n",
			r.Name, r.MeanErrUnw, r.MeanErrW, 100*r.RangeShare, r.ExprEvals, r.SubOps)
	}
	fmt.Fprintln(w)
	return nil
}
