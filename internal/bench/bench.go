// Package bench regenerates the paper's evaluation (§5, Figures 5–8): it
// scores every predictor's branch probabilities against the observed
// behaviour of the corpus programs on their reference inputs, reproducing
// the error-distribution curves, and collects the engine instrumentation
// behind the linearity figures.
//
// Methodology, following the paper exactly:
//
//   - execution profiles are collected on the *train* inputs and scored
//     against the *ref* inputs ("different inputs were used to collect the
//     execution profiles and the actual observed behavior");
//   - each branch's prediction error is the absolute difference between
//     predicted and observed probability, in percentage points;
//   - distributions are reported unweighted (each executed branch counts
//     once) and weighted by execution count;
//   - each benchmark is weighted equally within its suite.
package bench

import (
	"fmt"
	"sort"

	"vrp"
	"vrp/internal/corpus"
	"vrp/internal/heuristics"
	"vrp/internal/interp"
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// Predictor names, in the paper's legend order.
const (
	PredProfile    = "profiling"
	PredVRP        = "vrp"
	PredVRPNumeric = "vrp-numeric"
	PredBallLarus  = "ball-larus"
	Pred9050       = "90-50"
	PredRandom     = "random"
)

// Predictors lists every predictor in presentation order.
func Predictors() []string {
	return []string{PredProfile, PredVRP, PredVRPNumeric, PredBallLarus, Pred9050, PredRandom}
}

// BranchRecord is one conditional branch's scoring row.
type BranchRecord struct {
	Func   string
	Actual float64 // observed true-edge probability on the ref input
	Weight float64 // execution count on the ref input
	Pred   map[string]float64
	Source string // how the main VRP predictor decided (range/heuristic)
}

// ProgramEval is one benchmark's full evaluation.
type ProgramEval struct {
	Name    string
	Suite   corpus.Suite
	Records []BranchRecord

	Instrs   int           // program size (Figures 5–6 x-axis)
	Stats    corevrp.Stats // engine instrumentation (Figures 5–6 y-axes)
	RefSteps int64
	VRPShare float64 // fraction of executed branches predicted from ranges

	// Quality is the VRP analysis's prediction-quality digest (nil when
	// the analysis ran without telemetry).
	Quality *vrp.QualitySnapshot
}

// EvalProgram compiles and scores one benchmark under every predictor.
func EvalProgram(cp *corpus.Program) (*ProgramEval, error) {
	return evalCorpusProgram(cp)
}

// evalCorpusProgram is EvalProgram with opts added to both VRP analyses.
func evalCorpusProgram(cp *corpus.Program, opts ...vrp.Option) (*ProgramEval, error) {
	p, err := vrp.Compile(cp.Name+".mini", cp.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cp.Name, err)
	}
	refProf, err := p.Run(cp.Ref)
	if err != nil {
		return nil, fmt.Errorf("%s ref run: %w", cp.Name, err)
	}
	trainProf, err := p.Run(cp.Train)
	if err != nil {
		return nil, fmt.Errorf("%s train run: %w", cp.Name, err)
	}
	ev, err := evalProgram(p, refProf, trainProf, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cp.Name, err)
	}
	ev.Name, ev.Suite = cp.Name, cp.Suite
	return ev, nil
}

// evalProgram scores a compiled program under every predictor: the
// profiling predictor is trained on train and every predictor is scored
// against ref. opts are added to both VRP analyses.
func evalProgram(p *vrp.Program, ref, train *interp.Profile, opts ...vrp.Option) (*ProgramEval, error) {
	full, err := p.Analyze(append([]vrp.Option{vrp.WithTelemetry()}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("vrp: %w", err)
	}
	numeric, err := p.Analyze(append([]vrp.Option{vrp.NumericOnly()}, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("vrp-numeric: %w", err)
	}
	numPred := predictionMap(numeric)
	return scoreBranches(p, ref, full, map[string]predictor{
		PredProfile: func(f *ir.Func, br *ir.Instr) float64 {
			if tp, ok := train.BranchProb(f, br); ok {
				return tp
			}
			return 0.5 // never seen during training
		},
		PredVRPNumeric: func(_ *ir.Func, br *ir.Instr) float64 { return numPred[br].prob },
		PredBallLarus:  heuristics.NewBallLarus(p.IR).Prob,
		Pred9050:       heuristics.NinetyFifty,
		PredRandom:     heuristics.Random,
	}), nil
}

// predictor maps a conditional branch to its predicted true-edge
// probability.
type predictor func(f *ir.Func, br *ir.Instr) float64

// scoreBranches is the one branch-scoring walk: it records every
// conditional branch of p that executed under ref, with its observed
// probability and execution count, the prediction of analysis a (the
// PredVRP column), and the prediction of each entry of others.
func scoreBranches(p *vrp.Program, ref *interp.Profile, a *vrp.Analysis, others map[string]predictor) *ProgramEval {
	ev := &ProgramEval{
		Instrs:   p.IR.NumInstrs(),
		Stats:    a.Result.Stats,
		RefSteps: ref.Steps,
		Quality:  a.Quality(),
	}
	vrpPred := predictionMap(a)
	rangePredicted := 0
	for _, f := range p.IR.Funcs {
		for _, t := range f.Branches {
			actual, ran := ref.BranchProb(f, t)
			if !ran {
				continue // never executed on the reference input
			}
			ec := ref.EdgeCount[f]
			vp := vrpPred[t]
			succs := t.Block.Succs
			rec := BranchRecord{
				Func:   f.Name,
				Actual: actual,
				Weight: float64(ec[succs[0].ID] + ec[succs[1].ID]),
				Pred:   map[string]float64{PredVRP: vp.prob},
				Source: vp.source,
			}
			for name, pred := range others {
				rec.Pred[name] = pred(f, t)
			}
			if vp.source == "range" {
				rangePredicted++
			}
			ev.Records = append(ev.Records, rec)
		}
	}
	if len(ev.Records) > 0 {
		ev.VRPShare = float64(rangePredicted) / float64(len(ev.Records))
	}
	return ev
}

type predInfo struct {
	prob   float64
	source string
}

func predictionMap(a *vrp.Analysis) map[*ir.Instr]predInfo {
	m := map[*ir.Instr]predInfo{}
	for _, pr := range a.Predictions() {
		m[pr.Branch] = predInfo{prob: pr.Prob, source: pr.Source}
	}
	return m
}

// EvalSuite evaluates every program of a suite.
func EvalSuite(s corpus.Suite) ([]*ProgramEval, error) {
	var out []*ProgramEval
	for _, cp := range corpus.BySuite(s) {
		ev, err := EvalProgram(cp)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// EvalAll evaluates the whole corpus.
func EvalAll() ([]*ProgramEval, error) {
	var out []*ProgramEval
	for _, cp := range corpus.All() {
		ev, err := EvalProgram(cp)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// ------------------------------------------------------- error curves

// Thresholds are the x-axis of Figures 7–8: error in percentage points.
var Thresholds = []float64{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33, 35, 37, 39}

// Curve is the fraction of branches predicted within each threshold.
type Curve struct {
	Predictor string
	Pct       []float64 // per Thresholds entry, in percent (0-100)
}

// ErrorCurves computes the cumulative error distribution per predictor.
// With weighted=true each branch counts proportionally to its execution
// count; each program contributes equally either way.
func ErrorCurves(evals []*ProgramEval, weighted bool) []Curve {
	curves := make([]Curve, 0, len(Predictors()))
	for _, pred := range Predictors() {
		pct := make([]float64, len(Thresholds))
		nProgs := 0
		for _, ev := range evals {
			if len(ev.Records) == 0 {
				continue
			}
			nProgs++
			totalW := 0.0
			within := make([]float64, len(Thresholds))
			for _, rec := range ev.Records {
				w := 1.0
				if weighted {
					w = rec.Weight
				}
				totalW += w
				errPts := 100 * abs(rec.Pred[pred]-rec.Actual)
				for ti, th := range Thresholds {
					if errPts < th {
						within[ti] += w
					}
				}
			}
			if totalW == 0 {
				nProgs--
				continue
			}
			for ti := range Thresholds {
				pct[ti] += 100 * within[ti] / totalW
			}
		}
		if nProgs > 0 {
			for ti := range pct {
				pct[ti] /= float64(nProgs)
			}
		}
		curves = append(curves, Curve{Predictor: pred, Pct: pct})
	}
	return curves
}

// MeanError returns each predictor's average absolute error in percentage
// points (program-equal weighting), a scalar summary of the curves.
func MeanError(evals []*ProgramEval, weighted bool) map[string]float64 {
	out := map[string]float64{}
	for _, pred := range Predictors() {
		sum, nProgs := 0.0, 0
		for _, ev := range evals {
			if len(ev.Records) == 0 {
				continue
			}
			totalW, acc := 0.0, 0.0
			for _, rec := range ev.Records {
				w := 1.0
				if weighted {
					w = rec.Weight
				}
				totalW += w
				acc += w * 100 * abs(rec.Pred[pred]-rec.Actual)
			}
			if totalW > 0 {
				sum += acc / totalW
				nProgs++
			}
		}
		if nProgs > 0 {
			out[pred] = sum / float64(nProgs)
		}
	}
	return out
}

// HitRates computes the dynamic taken/not-taken hit rate per predictor
// over a set of evaluated programs (program-equal weighting): predict the
// likelier direction of each branch and count the fraction of executions
// that went that way. It is the metric of the studies the paper positions
// itself against (Smith 81, Ball–Larus 93, Fisher–Freudenberger 92); the
// paper argues probabilities are strictly more informative.
func HitRates(evals []*ProgramEval) map[string]float64 {
	out := map[string]float64{}
	for _, pred := range Predictors() {
		sum, n := 0.0, 0
		for _, ev := range evals {
			var hits, total float64
			for _, rec := range ev.Records {
				if rec.Weight <= 0 {
					continue
				}
				// Predicting the likelier direction: if p >= 0.5 predict
				// taken; the hit fraction is then `actual`, else 1-actual.
				p := rec.Pred[pred]
				frac := rec.Actual
				if p < 0.5 {
					frac = 1 - rec.Actual
				}
				hits += rec.Weight * frac
				total += rec.Weight
			}
			if total > 0 {
				sum += hits / total
				n++
			}
		}
		if n > 0 {
			out[pred] = 100 * sum / float64(n)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ------------------------------------------------------- linearity fits

// Point is one program's size/cost pair for Figures 5 and 6.
type Point struct {
	Name   string
	Instrs int
	Y      float64
}

// EvalPoints extracts Figure 5 (evaluations) or Figure 6 (sub-operations)
// points from a corpus evaluation.
func EvalPoints(evals []*ProgramEval, subOps bool) []Point {
	pts := make([]Point, 0, len(evals))
	for _, ev := range evals {
		y := float64(ev.Stats.ExprEvals + ev.Stats.PhiEvals)
		if subOps {
			y = float64(ev.Stats.SubOps)
		}
		pts = append(pts, Point{Name: ev.Name, Instrs: ev.Instrs, Y: y})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Instrs < pts[j].Instrs })
	return pts
}

// Fit is a least-squares line through the origin with its correlation.
type Fit struct {
	Slope float64 // cost per instruction
	R2    float64 // coefficient of determination
}

// FitLinear fits y = slope·x through the origin and reports R².
func FitLinear(pts []Point) Fit {
	var sxy, sxx float64
	for _, p := range pts {
		x := float64(p.Instrs)
		sxy += x * p.Y
		sxx += x * x
	}
	if sxx == 0 {
		return Fit{}
	}
	slope := sxy / sxx
	var meanY float64
	for _, p := range pts {
		meanY += p.Y
	}
	meanY /= float64(len(pts))
	var ssRes, ssTot float64
	for _, p := range pts {
		d := p.Y - slope*float64(p.Instrs)
		ssRes += d * d
		t := p.Y - meanY
		ssTot += t * t
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, R2: r2}
}
