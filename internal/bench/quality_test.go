package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vrp/internal/corpus"
)

// gateReport is a one-suite report whose VRP row has weighted error errW
// (unweighted error and hit rate held fixed).
func gateReport(errW, certain float64, stale int64) *QualityReport {
	return &QualityReport{
		Schema: QualitySchema,
		Suites: []QualitySuite{{
			Suite:           "corpus-int",
			Programs:        3,
			Branches:        100,
			Predictors:      map[string]PredictorScore{PredVRP: {ErrWPP: errW, ErrUPP: 20, HitPct: 80}},
			CertainFraction: certain,
			StaleCertain:    stale,
		}},
	}
}

func TestQualityGate(t *testing.T) {
	base := gateReport(10, 0.30, 0)
	edit := func(f func(*QualitySuite)) *QualityReport {
		r := gateReport(10, 0.30, 0)
		f(&r.Suites[0])
		return r
	}
	cases := []struct {
		name string
		cur  *QualityReport
		fail string // substring of the expected error; "" = pass
	}{
		{"identical", gateReport(10, 0.30, 0), ""},
		{"within-bound", gateReport(10.4, 0.29, 0), ""},
		{"improved", gateReport(5, 0.45, 0), ""},
		{"err-w-regressed", gateReport(11, 0.30, 0), "err_w_pp"},
		{"err-u-regressed", edit(func(s *QualitySuite) { s.Predictors[PredVRP] = PredictorScore{ErrWPP: 10, ErrUPP: 21, HitPct: 80} }), "err_u_pp"},
		{"hit-regressed", edit(func(s *QualitySuite) { s.Predictors[PredVRP] = PredictorScore{ErrWPP: 10, ErrUPP: 20, HitPct: 77} }), "hit_pct"},
		{"certain-regressed", gateReport(10, 0.20, 0), "certain_fraction"},
		{"stale-certain", gateReport(10, 0.30, 2), "stale_certain"},
		{"bottom-regressed", edit(func(s *QualitySuite) { s.BottomFraction = 0.5 }), "bottom_fraction"},
		{"suite-missing", &QualityReport{Schema: QualitySchema}, "corpus-int: suite missing"},
	}
	for _, tc := range cases {
		err := QualityGate(base, tc.cur)
		if tc.fail == "" {
			if err != nil {
				t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: gate passed, want failure mentioning %q", tc.name, tc.fail)
		} else if !strings.Contains(err.Error(), tc.fail) {
			t.Errorf("%s: gate error %q does not mention %q", tc.name, err, tc.fail)
		}
	}
}

// TestQualityGateReportsEveryRegression: a report that fails on several
// axes lists them all, so a CI log shows the full damage in one run.
func TestQualityGateReportsEveryRegression(t *testing.T) {
	err := QualityGate(gateReport(10, 0.30, 0), gateReport(20, 0.10, 1))
	if err == nil {
		t.Fatal("gate passed on a triple regression")
	}
	for _, want := range []string{"err_w_pp", "certain_fraction", "stale_certain"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q: %v", want, err)
		}
	}
}

// TestQualityGateSkipsNewSuites: a suite without a baseline row cannot
// regress; the gate must not fail on it.
func TestQualityGateSkipsNewSuites(t *testing.T) {
	cur := gateReport(10, 0.30, 0)
	cur.Suites = append(cur.Suites, QualitySuite{Suite: "gen-new", StaleCertain: 9})
	if err := QualityGate(gateReport(10, 0.30, 0), cur); err != nil {
		t.Errorf("gate failed on a suite with no baseline: %v", err)
	}
}

func synthEvals() []*ProgramEval {
	return []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			// VRP predicts taken (0.9), actually taken 80% of 100 execs;
			// profile is oracle-exact.
			{Actual: 0.8, Weight: 100, Pred: map[string]float64{PredVRP: 0.9, PredProfile: 0.8}},
			// VRP predicts not-taken (0.2), actually taken 10% of 300
			// execs: hit fraction 0.9.
			{Actual: 0.1, Weight: 300, Pred: map[string]float64{PredVRP: 0.2, PredProfile: 0.1}},
		},
	}}
}

func TestQualitySuiteMath(t *testing.T) {
	qs := qualitySuite("int", synthEvals())
	if qs.Suite != "int" || qs.Programs != 1 || qs.Branches != 2 {
		t.Fatalf("header = %+v", qs)
	}

	vrp, ok := qs.Predictors[PredVRP]
	if !ok {
		t.Fatal("missing vrp predictor")
	}
	// (100·0.8 + 300·0.9) / 400 = 87.5%.
	if math.Abs(vrp.HitPct-87.5) > 1e-9 {
		t.Errorf("vrp hit rate = %f, want 87.5", vrp.HitPct)
	}
	// Branch-equal: (|0.9-0.8| + |0.2-0.1|) / 2 = 0.1 → 10pp.
	if math.Abs(vrp.ErrUPP-10) > 1e-9 {
		t.Errorf("vrp unweighted error = %f, want 10", vrp.ErrUPP)
	}
	// Execution-weighted: (100·10 + 300·10) / 400 = 10pp too.
	if math.Abs(vrp.ErrWPP-10) > 1e-9 {
		t.Errorf("vrp weighted error = %f, want 10", vrp.ErrWPP)
	}

	// The profile predictor is probability-exact, so its error is 0 —
	// but it still misses (100·0.2 + 300·0.1)/400 = 12.5% of executions,
	// the branches' intrinsic entropy: even an oracle misses whenever a
	// branch goes both ways.
	prof := qs.Predictors[PredProfile]
	if prof.ErrUPP > 1e-9 || prof.ErrWPP > 1e-9 {
		t.Errorf("oracle profile predictor scored nonzero error: %+v", prof)
	}
	if math.Abs(100-prof.HitPct-12.5) > 1e-9 {
		t.Errorf("profile miss rate = %f, want intrinsic 12.5", 100-prof.HitPct)
	}
}

func TestQualityReportJSONShape(t *testing.T) {
	rep := &QualityReport{Schema: QualitySchema, Suites: []QualitySuite{qualitySuite("corpus-int", synthEvals())}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round QualityReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Suites) != 1 || round.Suites[0].Predictors[PredVRP].HitPct == 0 {
		t.Errorf("round trip lost data: %s", data)
	}
	for _, key := range []string{`"schema"`, `"suite"`, `"programs"`, `"branches"`, `"predictors"`,
		`"err_w_pp"`, `"err_u_pp"`, `"hit_pct"`, `"certain_fraction"`, `"mean_log2_width"`,
		`"stale_certain"`, `"cells"`, `"bottom_fraction"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("JSON missing documented key %s", key)
		}
	}
}

// TestQualityCorpus runs the real evaluation end to end: every corpus
// row must score VRP better than random and no better than the
// profiling oracle, with the same numbers vrpbench -summary prints.
func TestQualityCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	rep, err := Quality(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suites) != 4 {
		t.Fatalf("suites = %d, want 4", len(rep.Suites))
	}
	for i, s := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		qs := rep.Suites[i]
		if qs.Suite != "corpus-"+s.String() || qs.Programs == 0 || qs.Branches == 0 {
			t.Fatalf("corpus row %d = %+v", i, qs)
		}
		vrp, random, profile := qs.Predictors[PredVRP], qs.Predictors[PredRandom], qs.Predictors[PredProfile]
		if vrp.ErrWPP >= random.ErrWPP || vrp.HitPct <= random.HitPct {
			t.Errorf("%s: vrp %+v not better than random %+v", qs.Suite, vrp, random)
		}
		if profile.ErrWPP > vrp.ErrWPP || profile.HitPct < vrp.HitPct {
			t.Errorf("%s: profiling oracle %+v worse than vrp %+v", qs.Suite, profile, vrp)
		}
		evals, err := EvalSuite(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := MeanError(evals, true)[PredVRP]; vrp.ErrWPP != want {
			t.Errorf("%s: err_w_pp %v, summary computes %v", qs.Suite, vrp.ErrWPP, want)
		}
	}
}

// TestQualityGateFiresOnStarvedEvaluator: starving the evaluator
// (MaxEvals 1) must trip the paper-metric rows, not only the ⊥ fraction.
func TestQualityGateFiresOnStarvedEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quality evaluations")
	}
	base, err := Quality(0)
	if err != nil {
		t.Fatal(err)
	}
	starved, err := Quality(1)
	if err != nil {
		t.Fatal(err)
	}
	err = QualityGate(base, starved)
	if err == nil {
		t.Fatal("gate passed a starved-evaluator report")
	}
	if !strings.Contains(err.Error(), "corpus-fp: err_w_pp") {
		t.Errorf("gate error does not name corpus-fp err_w_pp:\n%v", err)
	}
}
