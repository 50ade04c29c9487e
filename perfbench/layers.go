package main

import (
	"time"

	"vrp/internal/ast"
	"vrp/internal/callgraph"
	"vrp/internal/freq"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
	"vrp/internal/telemetry"
	corevrp "vrp/internal/vrp"
)

// pipelineLayers are the modules the traced pass calls, in pipeline
// order.
var pipelineLayers = []string{"parser", "sem", "irgen", "ssaform", "callgraph", "heuristics", "vrp"}

// layerTrace accumulates one traced pass: CPU time (or, with probeAlloc,
// allocated bytes) per layer, and the work counters the layers report.
type layerTrace struct {
	probeAlloc bool
	cpu        map[string]time.Duration
	alloc      map[string]uint64

	ops   int           // traced ops
	total time.Duration // CPU of the traced ops

	analyses, converged                       int64
	instrs, phis, asserts                     int64
	branches, rangeBranches                   int64
	passes, engineRuns, skipped, spliced      int64
	evals, subOps, recWidens, staleCertain    int64
	factorizations, solves                    int64
	internHits, internMiss, memoHit, memoMiss int64

	// vrpd-edit only: server metric deltas over the traced session.
	storeHits, storeMiss, cacheHits, cacheMiss int64
}

func newLayerTrace(probeAlloc bool) *layerTrace {
	return &layerTrace{probeAlloc: probeAlloc, cpu: map[string]time.Duration{}, alloc: map[string]uint64{}}
}

// measure runs f, charging its CPU time or allocated bytes to layer.
func (t *layerTrace) measure(layer string, f func()) {
	if t.probeAlloc {
		a0 := allocatedBytes()
		f()
		t.alloc[layer] += allocatedBytes() - a0
		return
	}
	c0 := cpuNow()
	f()
	t.cpu[layer] += cpuNow() - c0
}

// pipeline compiles and analyzes src one public layer call at a time,
// exactly as vrp.Compile plus Program.Analyze(WithWorkers(1)) do, plus a
// stand-alone callgraph.Build (corevrp.Analyze builds its own graph
// inside). store and withTelemetry configure the analysis as
// vrpd does.
func (t *layerTrace) pipeline(name, src string, store corevrp.FuncStore, withTelemetry bool) (*corevrp.Result, error) {
	var (
		astProg *ast.Program
		prog    *ir.Program
		bl      *heuristics.BallLarus
		res     *corevrp.Result
		err     error
	)
	if t.measure("parser", func() { astProg, err = parser.Parse(name, src) }); err != nil {
		return nil, err
	}
	if t.measure("sem", func() { err = sem.Check(astProg) }); err != nil {
		return nil, err
	}
	if t.measure("irgen", func() { prog, err = irgen.Build(astProg) }); err != nil {
		return nil, err
	}
	if t.measure("ssaform", func() { err = ssaform.Build(prog) }); err != nil {
		return nil, err
	}
	t.measure("callgraph", func() { callgraph.Build(prog) })
	t.measure("heuristics", func() { bl = heuristics.NewBallLarus(prog) })

	cfg := corevrp.DefaultConfig()
	cfg.Workers = 1
	cfg.Fallback = bl.Prob
	cfg.Evidence = func(f *ir.Func, br *ir.Instr) []corevrp.EvidenceItem {
		evs := bl.Explain(f, br)
		items := make([]corevrp.EvidenceItem, len(evs))
		for i, ev := range evs {
			items[i] = corevrp.EvidenceItem{Name: ev.Name, Prob: ev.Prob}
		}
		return items
	}
	cfg.FuncStore = store
	if withTelemetry {
		cfg.Telemetry = telemetry.New()
	}
	f0, s0 := freq.Stats()
	if t.measure("vrp", func() { res, err = corevrp.Analyze(prog, cfg) }); err != nil {
		return nil, err
	}
	f1, s1 := freq.Stats()
	t.count(prog, res, f1-f0, s1-s0)
	return res, nil
}

func (t *layerTrace) count(prog *ir.Program, res *corevrp.Result, factorizations, solves int64) {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpPhi:
					t.phis++
				case ir.OpAssert:
					t.asserts++
				}
			}
		}
	}
	t.instrs += int64(prog.NumInstrs())
	for _, br := range res.Branches() {
		t.branches++
		if br.Source == corevrp.ByRange {
			t.rangeBranches++
		}
	}
	st := res.Stats
	t.analyses++
	if st.Converged {
		t.converged++
	}
	t.passes += int64(st.Passes)
	t.engineRuns += st.FuncsAnalyzed - st.FuncsSpliced
	t.spliced += st.FuncsSpliced
	t.skipped += st.FuncsSkipped
	t.evals += st.ExprEvals + st.PhiEvals
	t.subOps += st.SubOps
	t.recWidens += st.RecWidens
	t.staleCertain += st.StaleCertain
	t.factorizations += factorizations
	t.solves += solves
	if snap := res.Telemetry; snap != nil {
		t.internHits += snap.Totals.InternHits
		t.internMiss += snap.Totals.InternMiss
		t.memoHit += snap.Totals.MemoHits
		t.memoMiss += snap.Totals.MemoMisses
	}
}

// metrics reports the pass per traced op: CPU time and counts from t,
// allocated bytes from the allocation pass mem, and intern and memo hit
// rates from tel, a pass with telemetry on.
func (t *layerTrace) metrics(mem, tel *layerTrace) metrics {
	m := metrics{}
	ops := float64(t.ops)
	perOp := func(name string, v int64) { m.set(name, float64(v)/ops, "count") }
	var layerSum time.Duration
	for _, l := range pipelineLayers {
		m.set(l+".cpu_ms", float64(t.cpu[l])/1e6/ops, "ms")
		layerSum += t.cpu[l]
	}
	layerSum += t.cpu["server"]
	m.set("server.cpu_ms", float64(t.cpu["server"])/1e6/ops, "ms")
	for _, l := range []string{"parser", "ssaform", "vrp"} {
		m.set(l+".alloc_bytes", float64(mem.alloc[l])/float64(mem.ops), "B")
	}
	perOp("ssaform.instrs", t.instrs)
	perOp("ssaform.phis", t.phis)
	perOp("ssaform.asserts", t.asserts)
	perOp("vrp.passes", t.passes)
	perOp("vrp.engine_runs", t.engineRuns)
	perOp("vrp.skipped", t.skipped)
	perOp("vrp.spliced", t.spliced)
	perOp("vrp.rec_widens", t.recWidens)
	perOp("vrp.stale_certain", t.staleCertain)
	perOp("freq.factorizations", t.factorizations)
	perOp("freq.solves", t.solves)
	m.set("vrp.evals_per_instr", ratio(t.evals, t.instrs), "evals/instr")
	m.set("vrp.subops_per_instr", ratio(t.subOps, t.instrs), "subops/instr")
	m.set("vrp.converged_pct", 100*ratio(t.converged, t.analyses), "%")
	m.set("vrp.range_share_pct", 100*ratio(t.rangeBranches, t.branches), "%")
	m.set("vrange.intern_hit_pct", 100*ratio(tel.internHits, tel.internHits+tel.internMiss), "%")
	m.set("vrange.memo_hit_pct", 100*ratio(tel.memoHit, tel.memoHit+tel.memoMiss), "%")
	m.set("server.funcstore_hit_pct", 100*ratio(t.storeHits, t.storeHits+t.storeMiss), "%")
	m.set("server.cache_hit_pct", 100*ratio(t.cacheHits, t.cacheHits+t.cacheMiss), "%")
	m.set("harness.traced_cpu_ms", float64(t.total)/1e6/ops, "ms")
	m.set("harness.layer_cpu_pct", 100*float64(layerSum)/float64(t.total), "%")
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
