package bench

import (
	"fmt"
	"io"
	"strings"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/interp"
	"vrp/internal/telemetry"
)

// Prediction quality as a gated artifact (BENCH_quality.json): for every
// suite, each predictor's score on the paper's metric — mean absolute
// probability error, execution-weighted and unweighted — plus the
// taken/not-taken hit rate, and from the VRP analyses' quality digests
// how much of the branch surface is range-certain and how much of the
// lattice ended at ⊥. `vrpbench -quality -gate` fails CI when any gated
// VRP metric is worse than the committed baseline by more than its
// bound (qualityGateRows).

// QualitySchema identifies the BENCH_quality.json format (EXPERIMENTS.md).
const QualitySchema = "vrp-quality/v2"

// PredictorScore is one predictor's score over one suite, computed by
// MeanError and HitRates (program-equal weighting).
type PredictorScore struct {
	ErrWPP float64 `json:"err_w_pp"` // mean abs error, execution-weighted, pp
	ErrUPP float64 `json:"err_u_pp"` // mean abs error, each branch once, pp
	HitPct float64 `json:"hit_pct"`  // dynamic taken/not-taken hit rate, %
}

// QualitySuite is one suite's quality row.
type QualitySuite struct {
	Suite    string `json:"suite"`
	Programs int    `json:"programs"`
	Branches int    `json:"branches"` // scored (executed) conditional branches

	Predictors map[string]PredictorScore `json:"predictors"`

	// CertainFraction is the share of emitted predictions that are
	// range-certain (P ∈ {0, 1}); MeanLog2Width the program-equal mean of
	// each analysis's mean log₂ hull width; StaleCertain the total
	// stale-certain count (0 unless a demotion invalidated predictions).
	CertainFraction float64 `json:"certain_fraction"`
	MeanLog2Width   float64 `json:"mean_log2_width"`
	StaleCertain    int64   `json:"stale_certain"`

	// Cells is the total final-lattice cell count across the suite and
	// BottomFraction the share demoted to ⊥.
	Cells          int64   `json:"cells"`
	BottomFraction float64 `json:"bottom_fraction"`
}

// QualityReport is the machine-readable content of BENCH_quality.json.
type QualityReport struct {
	Schema string         `json:"schema"`
	Suites []QualitySuite `json:"suites"`
}

// Quality evaluates every suite and assembles the report: both corpus
// suites (profiling trained on the train input, scored on ref) plus the
// default and 10k genprog presets. A generated program has no inputs,
// so its one step-bounded run is both train and ref and its profiling
// row is the oracle. maxEvals > 0 overrides the engine's
// per-instruction evaluation budget — the synthetic-regression knob the
// CI gate uses to prove the gate fires.
func Quality(maxEvals int) (*QualityReport, error) {
	var opts []vrp.Option
	if maxEvals > 0 {
		opts = append(opts, vrp.WithMaxEvals(maxEvals))
	}
	rep := &QualityReport{Schema: QualitySchema}
	for _, s := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		var evals []*ProgramEval
		for _, cp := range corpus.BySuite(s) {
			ev, err := evalCorpusProgram(cp, opts...)
			if err != nil {
				return nil, err
			}
			evals = append(evals, ev)
		}
		rep.Suites = append(rep.Suites, qualitySuite("corpus-"+s.String(), evals))
	}
	for _, preset := range []string{"default", "10k"} {
		name := "gen-" + preset
		cfg, _ := genprog.Preset(preset)
		p, err := vrp.Compile(name+".mini", genprog.Source(cfg))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		prof, err := p.RunWith(nil, interp.Options{MaxSteps: 4 << 20})
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", name, err)
		}
		ev, err := evalProgram(p, prof, prof, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ev.Name = name
		rep.Suites = append(rep.Suites, qualitySuite(name, []*ProgramEval{ev}))
	}
	return rep, nil
}

// qualitySuite builds one suite's row from evaluated programs; programs
// without a quality digest contribute only to the predictor scores.
func qualitySuite(name string, evals []*ProgramEval) QualitySuite {
	qs := QualitySuite{Suite: name, Programs: len(evals), Predictors: map[string]PredictorScore{}}
	errW, errU, hits := MeanError(evals, true), MeanError(evals, false), HitRates(evals)
	for _, pred := range Predictors() {
		if hr, ok := hits[pred]; ok {
			qs.Predictors[pred] = PredictorScore{ErrWPP: errW[pred], ErrUPP: errU[pred], HitPct: hr}
		}
	}
	bottomIdx := 0
	for i, l := range telemetry.QualityClassLabels {
		if l == "bottom" {
			bottomIdx = i
		}
	}
	var emitted, certain, bottomCells int64
	var widthSum float64
	digests := 0
	for _, ev := range evals {
		qs.Branches += len(ev.Records)
		q := ev.Quality
		if q == nil {
			continue
		}
		digests++
		emitted += q.Branches
		certain += q.Certain
		qs.StaleCertain += q.StaleCertain
		widthSum += q.MeanLog2Width
		qs.Cells += q.Classes.Total()
		bottomCells += q.Classes.Counts[bottomIdx]
	}
	if emitted > 0 {
		qs.CertainFraction = float64(certain) / float64(emitted)
	}
	if digests > 0 {
		qs.MeanLog2Width = widthSum / float64(digests)
	}
	if qs.Cells > 0 {
		qs.BottomFraction = float64(bottomCells) / float64(qs.Cells)
	}
	return qs
}

// qualityGateRows are the gated VRP metrics of every suite, in the shape
// of BENCHMARK.json's end_to_end rows: a fresh value may be worse than
// the baseline, in the direction named by better, by at most bound. The
// error rows catch a starved evaluator (-maxevals 1); stale_certain gets
// no slack, since growth means a demotion invalidated predictions that
// used to hold.
var qualityGateRows = []struct {
	metric string
	better string // "lower" or "higher"
	bound  float64
	value  func(QualitySuite) float64
}{
	{"err_w_pp", "lower", 0.5, func(s QualitySuite) float64 { return s.Predictors[PredVRP].ErrWPP }},
	{"err_u_pp", "lower", 0.5, func(s QualitySuite) float64 { return s.Predictors[PredVRP].ErrUPP }},
	{"hit_pct", "higher", 2, func(s QualitySuite) float64 { return s.Predictors[PredVRP].HitPct }},
	{"certain_fraction", "higher", 0.02, func(s QualitySuite) float64 { return s.CertainFraction }},
	{"bottom_fraction", "lower", 0.02, func(s QualitySuite) float64 { return s.BottomFraction }},
	{"stale_certain", "lower", 0, func(s QualitySuite) float64 { return float64(s.StaleCertain) }},
}

// QualityGate compares a fresh report against the committed baseline and
// returns an error naming every regression: a baseline suite missing from
// the fresh report, or a gated metric worse than its baseline by more
// than its bound. A suite with no baseline row cannot regress.
func QualityGate(base, cur *QualityReport) error {
	curBy := map[string]QualitySuite{}
	for _, s := range cur.Suites {
		curBy[s.Suite] = s
	}
	var fails []string
	for _, b := range base.Suites {
		s, ok := curBy[b.Suite]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: suite missing from the fresh report", b.Suite))
			continue
		}
		for _, row := range qualityGateRows {
			got, want := row.value(s), row.value(b)
			worse := got - want
			if row.better == "higher" {
				worse = -worse
			}
			if worse > row.bound {
				fails = append(fails, fmt.Sprintf("%s: %s %.4g, baseline %.4g (%s is better, bound %g)",
					b.Suite, row.metric, got, want, row.better, row.bound))
			}
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("quality gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// PrintQuality renders the report as the human-readable companion of the
// JSON artifact.
func PrintQuality(w io.Writer, rep *QualityReport) {
	fmt.Fprintln(w, "Prediction quality per suite (mean absolute probability error vs the reference run):")
	for _, s := range rep.Suites {
		fmt.Fprintf(w, "  suite %-11s (%d programs, %d branches)\n", s.Suite, s.Programs, s.Branches)
		fmt.Fprintf(w, "    certain %.3f  mean-log2-width %.2f  cells %d  bottom %.3f  stale-certain %d\n",
			s.CertainFraction, s.MeanLog2Width, s.Cells, s.BottomFraction, s.StaleCertain)
		fmt.Fprintf(w, "    %-12s %8s %8s %7s\n", "predictor", "err-w", "err-u", "hit%")
		for _, pred := range Predictors() {
			if ps, ok := s.Predictors[pred]; ok {
				fmt.Fprintf(w, "    %-12s %6.1fpp %6.1fpp %6.1f%%\n", pred, ps.ErrWPP, ps.ErrUPP, ps.HitPct)
			}
		}
	}
	fmt.Fprintln(w)
}
