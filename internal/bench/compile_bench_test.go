package bench

import (
	"runtime"
	"testing"
	"time"

	"vrp"
	"vrp/internal/genprog"
)

// compileAllocMax bounds BenchmarkCompile's alloc-B/instr, which reads
// 348 on linux/amd64. A front end that grows its lists by append instead
// of sizing them reads 851; parsing from a token slice reads 575, and a
// fresh SSA builder per function, whose arrays are then not reused,
// reads 425.
const compileAllocMax = 400

// BenchmarkCompile compiles the genprog default program (parse, check,
// lower, SSA) once per iteration, reports the bytes allocated and the
// wall-clock time per IR instruction, and fails above compileAllocMax.
func BenchmarkCompile(b *testing.B) {
	src := genprog.Source(genprog.Default())
	p, err := vrp.Compile("gen.mini", src)
	if err != nil {
		b.Fatal(err)
	}
	instrs := float64(p.IR.NumInstrs())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := vrp.Compile("gen.mini", src); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&m)
	perInstr := float64(m.TotalAlloc-before) / float64(b.N) / instrs
	b.ReportMetric(perInstr, "alloc-B/instr")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/instrs, "ns/instr")
	if perInstr > compileAllocMax {
		b.Fatalf("alloc-B/instr %.0f exceeds compileAllocMax (%d)", perInstr, compileAllocMax)
	}
}
