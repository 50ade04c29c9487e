package bench

import (
	"testing"

	"vrp/internal/corpus"
	corevrp "vrp/internal/vrp"
)

// benchMerged analyzes the full merged corpus once per iteration, with or
// without interning — the profiling target for the interning layer's cost
// (go test -bench MergedAnalyze -cpuprofile ...).
func benchMerged(b *testing.B, disableIntern bool) {
	b.Helper()
	merged, err := mergedProgram(corpus.All())
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultEngineConfig(merged)
	cfg.Workers = 1
	cfg.Range.DisableIntern = disableIntern
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corevrp.Analyze(merged, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergedAnalyzeIntern(b *testing.B)   { benchMerged(b, false) }
func BenchmarkMergedAnalyzeNoIntern(b *testing.B) { benchMerged(b, true) }
