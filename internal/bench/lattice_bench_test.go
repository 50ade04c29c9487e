package bench

import (
	"testing"

	"vrp/internal/corpus"
	corevrp "vrp/internal/vrp"
)

// BenchmarkMergedAnalyze analyzes the full merged corpus once per
// iteration — the profiling target for the interning layer's cost (go
// test -bench MergedAnalyze -cpuprofile ...).
func BenchmarkMergedAnalyze(b *testing.B) {
	merged, err := mergedProgram(corpus.All())
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultEngineConfig(merged)
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corevrp.Analyze(merged, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
