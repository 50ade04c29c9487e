package bench

import (
	"math"
	"strings"
	"testing"

	"vrp/internal/corpus"
)

func TestErrorCurvesMath(t *testing.T) {
	// Two programs, two branches each, hand-computed distributions.
	evals := []*ProgramEval{
		{
			Name: "p1",
			Records: []BranchRecord{
				{Actual: 0.5, Weight: 10, Pred: map[string]float64{PredVRP: 0.5}}, // err 0
				{Actual: 0.5, Weight: 90, Pred: map[string]float64{PredVRP: 0.4}}, // err 10
			},
		},
		{
			Name: "p2",
			Records: []BranchRecord{
				{Actual: 1.0, Weight: 50, Pred: map[string]float64{PredVRP: 0.7}}, // err 30
				{Actual: 0.0, Weight: 50, Pred: map[string]float64{PredVRP: 0.0}}, // err 0
			},
		},
	}
	curves := ErrorCurves(evals, false)
	var vrpCurve *Curve
	for i := range curves {
		if curves[i].Predictor == PredVRP {
			vrpCurve = &curves[i]
		}
	}
	if vrpCurve == nil {
		t.Fatal("no vrp curve")
	}
	// Threshold <5: p1 has 1/2 within, p2 has 1/2 within → mean 50%.
	if got := vrpCurve.Pct[2]; math.Abs(got-50) > 1e-9 { // Thresholds[2] == 5
		t.Errorf("<5pp = %f, want 50", got)
	}
	// Threshold <11: p1 2/2, p2 1/2 → 75%.
	if got := vrpCurve.Pct[5]; math.Abs(got-75) > 1e-9 { // Thresholds[5] == 11
		t.Errorf("<11pp = %f, want 75", got)
	}
	// Threshold <31: everything → 100%.
	if got := vrpCurve.Pct[15]; math.Abs(got-100) > 1e-9 {
		t.Errorf("<31pp = %f, want 100", got)
	}

	// Weighted: p1 within<5 = 10/100; p2 = 50/100 → mean 30%.
	wcurves := ErrorCurves(evals, true)
	for i := range wcurves {
		if wcurves[i].Predictor == PredVRP {
			if got := wcurves[i].Pct[2]; math.Abs(got-30) > 1e-9 {
				t.Errorf("weighted <5pp = %f, want 30", got)
			}
		}
	}
}

func TestMeanErrorMath(t *testing.T) {
	evals := []*ProgramEval{
		{
			Name: "p1",
			Records: []BranchRecord{
				{Actual: 0.5, Weight: 1, Pred: map[string]float64{Pred9050: 0.9}}, // 40pp
				{Actual: 0.5, Weight: 3, Pred: map[string]float64{Pred9050: 0.5}}, // 0pp
			},
		},
	}
	me := MeanError(evals, false)
	if math.Abs(me[Pred9050]-20) > 1e-9 {
		t.Errorf("unweighted mean = %f, want 20", me[Pred9050])
	}
	mw := MeanError(evals, true)
	if math.Abs(mw[Pred9050]-10) > 1e-9 {
		t.Errorf("weighted mean = %f, want 10", mw[Pred9050])
	}
}

func TestHitRatesMath(t *testing.T) {
	evals := []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			// Predicted taken (0.9), actually taken 80% of 100 execs.
			{Actual: 0.8, Weight: 100, Pred: map[string]float64{PredVRP: 0.9}},
			// Predicted not-taken (0.2), actually taken 10% of 300 execs:
			// hit fraction 0.9.
			{Actual: 0.1, Weight: 300, Pred: map[string]float64{PredVRP: 0.2}},
		},
	}}
	hr := HitRates(evals)
	want := 100 * (100*0.8 + 300*0.9) / 400
	if math.Abs(hr[PredVRP]-want) > 1e-9 {
		t.Errorf("hit rate = %f, want %f", hr[PredVRP], want)
	}
}

func TestHitRatesPerfectPredictor(t *testing.T) {
	evals := []*ProgramEval{{
		Name: "p",
		Records: []BranchRecord{
			{Actual: 1, Weight: 50, Pred: map[string]float64{PredProfile: 1}},
			{Actual: 0, Weight: 50, Pred: map[string]float64{PredProfile: 0}},
		},
	}}
	hr := HitRates(evals)
	if hr[PredProfile] != 100 {
		t.Errorf("perfect predictor hit rate = %f", hr[PredProfile])
	}
}

func TestFitLinear(t *testing.T) {
	pts := []Point{{Instrs: 100, Y: 200}, {Instrs: 200, Y: 400}, {Instrs: 400, Y: 800}}
	fit := FitLinear(pts)
	if math.Abs(fit.Slope-2) > 1e-9 {
		t.Errorf("slope = %f, want 2", fit.Slope)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %f, want 1", fit.R2)
	}
	noisy := []Point{{Instrs: 100, Y: 250}, {Instrs: 200, Y: 380}, {Instrs: 400, Y: 790}}
	nf := FitLinear(noisy)
	if nf.R2 > 1 || nf.R2 < 0.9 {
		t.Errorf("noisy R2 = %f", nf.R2)
	}
}

// TestPaperShape asserts the §5 qualitative claims hold on the corpus —
// the reproduction's headline result.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	for _, suite := range []corpus.Suite{corpus.IntSuite, corpus.FPSuite} {
		evals, err := EvalSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		for _, weighted := range []bool{false, true} {
			me := MeanError(evals, weighted)
			// Profiling beats every static predictor.
			for _, pred := range []string{PredVRP, PredVRPNumeric, PredBallLarus, Pred9050, PredRandom} {
				if me[PredProfile] >= me[pred] {
					t.Errorf("%s/w=%v: profiling (%.1f) should beat %s (%.1f)",
						suite, weighted, me[PredProfile], pred, me[pred])
				}
			}
			// VRP beats Ball–Larus and the 90/50 rule.
			if me[PredVRP] >= me[PredBallLarus] {
				t.Errorf("%s/w=%v: vrp (%.1f) should beat ball-larus (%.1f)",
					suite, weighted, me[PredVRP], me[PredBallLarus])
			}
			if me[PredVRP] >= me[Pred9050] {
				t.Errorf("%s/w=%v: vrp (%.1f) should beat 90-50 (%.1f)",
					suite, weighted, me[PredVRP], me[Pred9050])
			}
			// Symbolic ranges improve on numeric-only.
			if me[PredVRP] > me[PredVRPNumeric] {
				t.Errorf("%s/w=%v: vrp (%.1f) should not lose to numeric-only (%.1f)",
					suite, weighted, me[PredVRP], me[PredVRPNumeric])
			}
		}
	}

	// fp code is more predictable than int code for VRP (paper: "the
	// value range propagation method is significantly more accurate for
	// numeric code").
	intEvals, err := EvalSuite(corpus.IntSuite)
	if err != nil {
		t.Fatal(err)
	}
	fpEvals, err := EvalSuite(corpus.FPSuite)
	if err != nil {
		t.Fatal(err)
	}
	if MeanError(fpEvals, true)[PredVRP] >= MeanError(intEvals, true)[PredVRP] {
		t.Error("fp suite should be more predictable than int suite")
	}
	// And the share of range-predicted branches should be higher on fp.
	intShare, fpShare := 0.0, 0.0
	for _, ev := range intEvals {
		intShare += ev.VRPShare
	}
	for _, ev := range fpEvals {
		fpShare += ev.VRPShare
	}
	if fpShare/float64(len(fpEvals)) <= intShare/float64(len(intEvals)) {
		t.Error("fp suite should have a higher range-predicted share")
	}
}

// TestLinearity asserts the §4 claim: evaluation work grows linearly with
// program size (high R² of the through-origin fit over merged programs of
// growing size).
func TestLinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	for _, subOps := range []bool{false, true} {
		pts, err := ScaledPoints(subOps)
		if err != nil {
			t.Fatal(err)
		}
		fit := FitLinear(pts)
		if fit.R2 < 0.9 {
			t.Errorf("subOps=%v: R² = %.3f — not plausibly linear", subOps, fit.R2)
		}
		if fit.Slope <= 0 {
			t.Errorf("subOps=%v: slope %.2f", subOps, fit.Slope)
		}
	}
}

func TestPrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation")
	}
	var sb strings.Builder
	if err := PrintFigure(&sb, corpus.FPSuite); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"Figure 8", "unweighted", "weighted", "vrp", "ball-larus", "90-50"} {
		if !strings.Contains(out, frag) {
			t.Errorf("figure output missing %q", frag)
		}
	}
	sb.Reset()
	if err := PrintLinearity(&sb, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "linear fit") {
		t.Error("linearity output missing fit")
	}
	sb.Reset()
	if err := PrintSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "mean absolute prediction error") {
		t.Error("summary output malformed")
	}
	sb.Reset()
	if err := PrintApplications(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bounds checks") {
		t.Error("applications output malformed")
	}
}
