package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"vrp/internal/bench"
	"vrp/internal/corpus"
)

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// A short run of every workload, untraced and traced, reports exactly the
// metrics BENCHMARK.json declares, with their units and finite values,
// and no failed op.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(options{workload: w.Name, seed: 7, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// A corrupted reference makes the output checks fail the ops that
// compare against it.
func TestCorruptedReferenceFailsOps(t *testing.T) {
	for _, w := range []string{"corpus", "vrpd-edit"} {
		rep, err := run(options{workload: w, seed: 7, corrupt: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: corrupted reference gave correct=%v failed=%d", w, rep.Correct, rep.Failed)
		}
	}
}

// The corpus quality metrics equal the VRP column that the vrpbench
// harness computes from bench.EvalProgram records.
func TestCorpusQualityMatchesHarness(t *testing.T) {
	w, err := newCorpus(0)
	if err != nil {
		t.Fatal(err)
	}
	var evals []*bench.ProgramEval
	for _, cp := range corpus.All() {
		ev, err := bench.EvalProgram(cp)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, ev)
	}
	got := w.quality()
	want := quality{
		errW: bench.MeanError(evals, true)[bench.PredVRP],
		errU: bench.MeanError(evals, false)[bench.PredVRP],
		hit:  bench.HitRates(evals)[bench.PredVRP],
	}
	if got != want {
		t.Errorf("benchmark quality %+v, harness %+v", got, want)
	}
}
