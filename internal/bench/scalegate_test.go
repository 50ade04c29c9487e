package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"vrp"
	"vrp/internal/genprog"
)

// ScaleGate enforces the near-linear scaling contract: the 100k tier's
// ns/instr must stay within factor× the 10k tier's. Super-linear blowup
// between those two decades is the signature of an accidentally
// quadratic hot path.
func ScaleGate(ns10k, ns100k, factor float64) error {
	if limit := factor * ns10k; ns100k > limit {
		return fmt.Errorf("scale gate failed: gen-100k %.1f ns/instr exceeds %.2f× gen-10k (%.1f ns/instr, limit %.1f)",
			ns100k, factor, ns10k, limit)
	}
	return nil
}

// BenchmarkScaleNearLinear checks the paper's linear-cost claim
// (Figures 5–6) on wall-clock time. Each iteration compiles and analyzes
// the genprog 10k and 100k presets through the full pipeline under the
// sequential schedule (Workers 1, so the tiers measure the analysis, not
// the scheduling luck of a shared box), and the benchmark fails when
// gen-100k's ns/instr exceeds 2× gen-10k's. Sources are generated outside
// the timed section, and a full GC before each tier fences the previous
// tier's garbage out of its time.
//
//	go test ./internal/bench/ -run XXX -bench ScaleNearLinear -benchtime 1x
func BenchmarkScaleNearLinear(b *testing.B) {
	type tier struct {
		name   string
		src    string
		ns     int64
		instrs int
	}
	tiers := []*tier{{name: "10k"}, {name: "100k"}}
	for _, t := range tiers {
		cfg, _ := genprog.Preset(t.name)
		t.src = genprog.Source(cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tiers {
			runtime.GC()
			start := time.Now()
			p, err := vrp.Compile("gen-"+t.name+".mini", t.src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Analyze(vrp.WithWorkers(1)); err != nil {
				b.Fatal(err)
			}
			t.ns += time.Since(start).Nanoseconds()
			t.instrs += p.IR.NumInstrs()
		}
	}
	ns10k := float64(tiers[0].ns) / float64(tiers[0].instrs)
	ns100k := float64(tiers[1].ns) / float64(tiers[1].instrs)
	b.ReportMetric(ns10k, "ns/instr-10k")
	b.ReportMetric(ns100k, "ns/instr-100k")
	b.ReportMetric(ns100k/ns10k, "ratio-100k/10k")
	if err := ScaleGate(ns10k, ns100k, 2.0); err != nil {
		b.Fatal(err)
	}
}

// TestScaleGate pins the near-linear scaling contract
// BenchmarkScaleNearLinear enforces: gen-100k may cost up to factor×
// gen-10k per instruction.
func TestScaleGate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		ns10k, ns100k float64
		wantErr       []string // substrings of the error; nil = passes
	}{
		{"within-2x", 20, 39.9, nil},
		{"exactly-2x", 20, 40, nil},
		{"above-2x", 20, 40.5, []string{"gen-100k 40.5 ns/instr", "gen-10k (20.0 ns/instr"}},
	} {
		err := ScaleGate(tc.ns10k, tc.ns100k, 2.0)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: gate passed, want an error", tc.name)
			continue
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
	}
}
