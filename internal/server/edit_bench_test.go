package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"vrp"
	"vrp/internal/genprog"
)

// editAllocMax bounds BenchmarkEditRequest's alloc-B/instr, which reads
// about 78 on linux/amd64 now that the driver traces only timed work (the
// callgraph, each pass and each engine run), the non-convergence demotion
// is a view (no value vector is copied), input snapshots are built in
// per-function scratch with one calculator per worker slot, and the
// compile cache splits the source without lexing the units it holds.
// It read about 87 while the driver also opened a span for every skip,
// splice and wave of the request's trace; about 163 while every demoted
// function shared with a store record got a fresh copy of its values and
// every function visit allocated its input vector and calculator; about
// 196 while every update and input snapshot walked the function's
// instructions and allocated its merges afresh, about 215 while the
// request body and the prediction slices grew by doubling. Before the
// server's compile cache compiled only the functions an edit changes (two
// per edit here: the edited kernel, and the one the previous edit
// changed, which this edit reverts) it read about 562, and about 605
// while splices rebuilt each result from the store record; before spliced
// functions took their settled post-fixpoint work from the store records,
// and before Ball–Larus built its structures on demand, about 730.
const editAllocMax = 84

// BenchmarkEditRequest measures vrpd's incremental path: a server warmed
// with the genprog default program (which stops unconverged, so every
// request runs the non-convergence demotion) receives one fresh
// single-kernel edit per iteration through its handler. Each edit misses
// the response cache, compiles the functions it changed and splices all
// but its dirty cone from the per-function store. It reports the
// wall-clock time and bytes allocated per IR instruction of the program,
// and fails above editAllocMax.
func BenchmarkEditRequest(b *testing.B) {
	cfg := genprog.Default()
	base := genprog.Source(cfg)
	p, err := vrp.Compile("gen.mini", base)
	if err != nil {
		b.Fatal(err)
	}
	instrs := float64(p.IR.NumInstrs())
	h := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
	post := func(src string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader([]byte(src))))
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	post(base)
	edits := make([]string, b.N)
	for i := range edits {
		src, ok := genprog.EditFunc(base, i%cfg.Funcs, int64(i+1))
		if !ok {
			b.Fatalf("EditFunc(%d) failed", i%cfg.Funcs)
		}
		edits[i] = src
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	b.ResetTimer()
	start := time.Now()
	for _, src := range edits {
		post(src)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&m)
	perInstr := float64(m.TotalAlloc-before) / float64(b.N) / instrs
	b.ReportMetric(perInstr, "alloc-B/instr")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/instrs, "ns/instr")
	if perInstr > editAllocMax {
		b.Fatalf("alloc-B/instr %.0f exceeds editAllocMax (%d)", perInstr, editAllocMax)
	}
}
