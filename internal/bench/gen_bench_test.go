package bench

import (
	"testing"

	"vrp"
	"vrp/internal/genprog"
	corevrp "vrp/internal/vrp"
)

// BenchmarkGenAnalyze analyzes the genprog default program once per
// iteration.
func BenchmarkGenAnalyze(b *testing.B) {
	p, err := vrp.Compile("gen.mini", genprog.Source(genprog.Default()))
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultEngineConfig(p.IR)
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corevrp.Analyze(p.IR, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
