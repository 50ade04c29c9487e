package vrp

import (
	"fmt"
	"runtime"
	"testing"

	"vrp/internal/genprog"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
)

func mustCompile(b *testing.B, src string) *ir.Program {
	b.Helper()
	prog, err := parser.Parse("b.mini", src)
	if err != nil {
		b.Fatal(err)
	}
	if err := sem.Check(prog); err != nil {
		b.Fatal(err)
	}
	p, err := irgen.Build(prog)
	if err != nil {
		b.Fatal(err)
	}
	if err := ssaform.Build(p); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAnalyzePaperExample measures one full propagation of the
// paper's worked example.
func BenchmarkAnalyzePaperExample(b *testing.B) {
	p := mustCompile(b, paperExample)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeLoopNest measures the engine on a deeper loop nest with
// derivations and interprocedural flow.
func BenchmarkAnalyzeLoopNest(b *testing.B) {
	p := mustCompile(b, `
func kernel(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) % 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}
func main() {
	print(kernel(50, 20));
	print(kernel(10, 100));
}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeManyFuncs measures the driver on a wide program (32
// independent loop-nest kernels) under the sequential and the parallel
// schedule; the two produce bit-identical results, so the ratio is pure
// driver speedup.
func BenchmarkAnalyzeManyFuncs(b *testing.B) {
	src := ""
	call := ""
	for i := 0; i < 32; i++ {
		src += fmt.Sprintf(`
func kernel%d(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) %% 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}`, i)
		call += fmt.Sprintf("\tprint(kernel%d(%d, %d));\n", i, 40+i, 10+i)
	}
	src += "\nfunc main() {\n" + call + "}\n"
	p := mustCompile(b, src)
	for _, workers := range []int{1, 0} {
		name := "seq"
		if workers == 0 {
			name = "par"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDerivation isolates loop-carried derivation against brute
// force on the same program.
func BenchmarkDerivation(b *testing.B) {
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 200; i += 2) { s += 1; }
	print(s);
}`
	for _, derive := range []bool{true, false} {
		name := "derive"
		if !derive {
			name = "bruteforce"
		}
		b.Run(name, func(b *testing.B) {
			p := mustCompile(b, src)
			cfg := DefaultConfig()
			cfg.Derivation = derive
			b.ReportAllocs()
			b.ResetTimer()
			var evals int64
			for i := 0; i < b.N; i++ {
				res, err := Analyze(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				evals = res.Stats.ExprEvals + res.Stats.PhiEvals
			}
			b.ReportMetric(float64(evals), "evals")
		})
	}
}

// BenchmarkAnalyzeAllocs measures the heap cost of one analysis of a
// loop-and-call heavy program.
func BenchmarkAnalyzeAllocs(b *testing.B) {
	src := ""
	call := ""
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf(`
func kernel%d(n, m) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < m; j++) {
			if ((i + j) %% 2 == 0) { s += i; } else { s -= j; }
		}
	}
	return s;
}`, i)
		call += fmt.Sprintf("\tprint(kernel%d(%d, %d));\n", i, 40+i, 10+i)
	}
	src += "\nfunc main() {\n" + call + "}\n"
	p := mustCompile(b, src)
	cfg := DefaultConfig()
	cfg.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetainedAnalysis reports how much live heap one held Result of
// the genprog 10k preset pins, per IR instruction: the live heap after the
// analysis minus the live heap before it, each read after two GCs. One
// analysis before the first reading puts the pooled cons table in both
// readings, so only what the Result reaches counts.
func BenchmarkRetainedAnalysis(b *testing.B) {
	gcfg, _ := genprog.Preset("10k")
	p := mustCompile(b, genprog.Source(gcfg))
	cfg := DefaultConfig()
	cfg.Workers = 1
	if _, err := Analyze(p, cfg); err != nil {
		b.Fatal(err)
	}
	var retained int64
	for i := 0; i < b.N; i++ {
		base := liveHeap()
		res, err := Analyze(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		retained += liveHeap() - base
		runtime.KeepAlive(res)
	}
	b.ReportMetric(float64(retained)/float64(b.N)/float64(p.NumInstrs()), "retained-B/instr")
}

// liveHeap is the heap in use after two full collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// warmTableAllocMax bounds BenchmarkWarmTableAlloc's alloc-B/instr,
// which reads 506 on linux/amd64. A table pool that the collector
// empties rebuilds and regrows the cons table after the two GCs of every
// iteration and reads 3196; a fresh value vector per engine run reads
// 881.
const warmTableAllocMax = 720

// BenchmarkWarmTableAlloc reports the bytes one analysis of the genprog
// 10k preset allocates per IR instruction once the table pool is warm,
// with two GCs before each analysis (a big analysis triggers about one
// GC per op), and fails above warmTableAllocMax.
func BenchmarkWarmTableAlloc(b *testing.B) {
	gcfg, _ := genprog.Preset("10k")
	p := mustCompile(b, genprog.Source(gcfg))
	cfg := DefaultConfig()
	cfg.Workers = 1
	if _, err := Analyze(p, cfg); err != nil {
		b.Fatal(err)
	}
	var m runtime.MemStats
	var alloc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		if _, err := Analyze(p, cfg); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&m)
		alloc += m.TotalAlloc - before
	}
	perInstr := float64(alloc) / float64(b.N) / float64(p.NumInstrs())
	b.ReportMetric(perInstr, "alloc-B/instr")
	if perInstr > warmTableAllocMax {
		b.Fatalf("alloc-B/instr %.0f exceeds warmTableAllocMax (%d)", perInstr, warmTableAllocMax)
	}
}
