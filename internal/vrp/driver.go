package vrp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"vrp/internal/callgraph"
	"vrp/internal/freq"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// The analysis driver runs the §3.7 interprocedural fixpoint as a
// parallel, incremental, work-skipping schedule:
//
//   - Each pass walks the call graph condensation in topological *waves*
//     (callgraph.Graph.Waves). SCCs within one wave are pairwise
//     call-independent, so their functions are analyzed concurrently on a
//     bounded worker pool; mutually recursive functions (one SCC) are
//     analyzed sequentially inside their task, in call order.
//   - Before a function runs, its interprocedural inputs — the merged
//     formal-parameter values and the return ranges of its known callees —
//     are frozen into a funcInputs snapshot. The engine reads only the
//     snapshot, never live shared state, which is what makes wave
//     parallelism race-free by construction.
//   - The snapshot is fingerprinted (vrange.Hasher). If a function's input
//     vector is bit-identical to the one of its previous engine run, the
//     run is skipped and the prior FuncResult reused: the engine is a
//     deterministic function of its inputs, so skipping provably cannot
//     change any output bit. On fixpoints that converge early, later
//     passes skip almost everything (Stats.FuncsSkipped).
//
// Determinism: task outputs — results, diagnostics and effort counters —
// go to per-function slots, and merges iterate in fixed index order, so
// Workers: 8 is bit-identical to Workers: 1 and Stats.SubOps/ExprEvals
// stay exact.

// funcInputs freezes one function's interprocedural inputs for one engine
// run (or one skip decision).
type funcInputs struct {
	vec     []vrange.Value // canonical vector: params, then callee returns in callee-index order
	params  []vrange.Value // merged formal-parameter values: vec's head
	rets    []vrange.Value // callee return ranges: vec's tail, parallel to callees
	callees []int          // the function's callgraph.Graph.Callees
	index   map[*ir.Func]int
	hash    uint64 // vrange.Hasher over vec
}

// param returns the value of formal #i; a formal no caller has supplied is
// ⊤ (the merge of nothing — optimistic, as in interproc.formals).
func (in *funcInputs) param(i int) vrange.Value {
	if i >= 0 && i < len(in.params) {
		return in.params[i]
	}
	return vrange.TopValue()
}

// ret returns the frozen return range of a known callee.
func (in *funcInputs) ret(callee *ir.Func) vrange.Value {
	if ci, ok := in.index[callee]; ok {
		if k, ok := slices.BinarySearch(in.callees, ci); ok {
			return in.rets[k]
		}
	}
	return vrange.BottomValue()
}

// funcCounts is one function's work over the whole run: the effort of its
// engine runs (replayed from the store on a splice) plus the calculator's
// live share, its table-warmth traffic, and how each pass disposed of it.
// Stats and the telemetry Snapshot are both sums of these slots.
type funcCounts struct {
	eff      Effort
	lattice  telemetry.LatticeCounters
	runs     int64 // engine runs, splices and degraded runs (Stats.FuncsAnalyzed)
	skips    int64
	spliced  int64
	degraded int64
}

// addLive adds the calculator's share of a run: the sub-operations and
// set-cap widenings of the input snapshot, the engine (when it ran) and
// the interprocedural update, and the table traffic, which is never
// replayed.
func (c *funcCounts) addLive(calc *vrange.Calc) {
	c.eff.SubOps += calc.SubOps
	c.eff.Widens += calc.Widens
	l := &c.lattice
	l.InternHits += calc.InternHits
	l.InternMiss += calc.InternMisses
	l.MemoHits += calc.MemoHits
	l.MemoMisses += calc.MemoMisses
}

type driver struct {
	prog    *ir.Program
	cfg     Config
	cg      *callgraph.Graph
	ip      *interproc
	workers int
	// internHint pre-sizes each worker's new cons table at 1.25× the
	// instruction count, divided by the worker count (a parallel schedule
	// spreads the population). It is a starting size, not an estimate:
	// at the end of a run live values measure ≈1.4× the instruction count
	// over the corpus as a whole (0.2–10× per program) and 5.1–6.1× on
	// gen-10k programs, so a big program's table still doubles a few
	// times. The hint only sizes a new table: a pooled one, reset or
	// warm, keeps the size it grew to, so once the pool holds a table
	// for the config the hint no longer matters.
	internHint int
	ctx        context.Context

	results []*FuncResult // function index → latest FuncResult
	// fromEngine marks the results an engine run produced and no record
	// shares: their values alias the worker tables' arenas until
	// ownResults copies them out, and the function's next engine run
	// overwrites their slices.
	fromEngine []bool
	prevIn     [][]vrange.Value // function index → input vector of the last engine run or splice (once results is set)
	prevFP     []uint64         // fingerprint of prevIn
	// inputs holds each function's input snapshot. Its vector is scratch
	// that computeInputs refills on every visit, so a skip allocates
	// nothing; a run or splice keeps it by swapping it with prevIn. Both
	// vectors of every function are carved from one slab.
	inputs []funcInputs

	// poisoned marks functions whose engine panicked or ran out of step
	// budget: their results are the degraded ⊥/heuristic fallback and
	// they are quarantined for the remaining passes (the degraded
	// contribution is already a fixpoint). Like results/prevIn, each slot
	// is touched only by the task that owns the function's SCC, so wave
	// parallelism stays race-free.
	poisoned []bool

	// diags collects diagnostics in per-function slots (index = function
	// index) so the final Diagnostics slice is deterministic for every
	// worker count: concatenated in function-index order, per-function in
	// pass order.
	diags [][]Diagnostic

	// counts holds each function's effort slot, owned like results and
	// diags; fillStats and finishTelemetry sum them after the run.
	counts []funcCounts

	// sccFuncs orders each SCC's members by callOrder position, so
	// mutually recursive functions are analyzed callers-roughly-first
	// exactly as the classic sequential driver did.
	sccFuncs [][]int

	// tables holds one persistent hash-cons table per worker slot (nil
	// until the slot first runs).
	// Each wave spawns at most one goroutine per slot and hands it the
	// slot's table; the WaitGroup barrier between waves (and passes) gives
	// the happens-before for this epoch hand-off, so a table is never
	// touched concurrently while its intern, memo, and arena state stay
	// warm across the whole analysis. Per-worker tables replace the old
	// per-SCC tables: workers stop rebuilding cold tables for every small
	// SCC they steal, and the table count is bounded by the pool size
	// instead of the program's SCC count. Values interned in different
	// slots carry different ids for equal content; that only weakens the
	// id short-circuit to a structural compare, never correctness.
	tables []*vrange.Interner

	// memos holds one engine run memo per worker slot, owned like the
	// slot's table and taken from memoPool.
	memos []*runMemo

	// scratch holds one recycled engine allocation pool per function
	// (dominator structures plus zeroed-on-reuse working arrays), created
	// lazily under the same ownership discipline as interners: one task
	// per function per wave, barriers between passes.
	scratch []*engineScratch

	// bodyEnc/bodyFPs lazily cache each function's canonical body
	// encoding and fingerprint for Config.FuncStore keys (nil slices when
	// no store is configured). Slots follow the per-function ownership
	// discipline of results/prevIn: one task per function per wave, wave
	// barriers between fills and later reads.
	bodyEnc  [][]byte
	bodyFPs  []uint64
	configFP uint64

	// records holds, per function, the store record its latest result
	// was spliced from or stored as (nil if none); settled caches each
	// function's settled part for the post-fixpoint steps (settledFor).
	// Both are owned like results.
	records []*StoredFunc
	settled []*settled

	// Non-convergence demotion accounting (filled single-threaded by
	// demoteUnconverged): ⊤ cells demoted to ⊥, and range-certain branch
	// predictions invalidated by the demotion and replaced by heuristics.
	demotedTop   int64
	staleCertain int64

	pass      int // current 0-based pass, for diagnostics
	changed   atomic.Bool
	cancelled atomic.Bool
}

func newDriver(p *ir.Program, cfg Config) *driver {
	cgSpan := cfg.Trace.Start(cfg.TraceParent, "driver", "callgraph")
	cg := callgraph.Build(p)
	if cfg.Trace != nil {
		cfg.Trace.Annotate(cgSpan, "funcs", strconv.Itoa(cg.NumFuncs()))
		cfg.Trace.Annotate(cgSpan, "sccs", strconv.Itoa(len(cg.SCCs)))
		cfg.Trace.End(cgSpan)
	}
	n := cg.NumFuncs()
	d := &driver{
		prog:       p,
		cfg:        cfg,
		cg:         cg,
		ip:         newInterproc(p, cfg, cg),
		workers:    cfg.Workers,
		results:    make([]*FuncResult, n),
		fromEngine: make([]bool, n),
		prevIn:     make([][]vrange.Value, n),
		prevFP:     make([]uint64, n),
		inputs:     make([]funcInputs, n),
		poisoned:   make([]bool, n),
		diags:      make([][]Diagnostic, n),
		counts:     make([]funcCounts, n),
	}
	width := 0
	for fi, f := range cg.Funcs {
		width += len(f.Params) + len(cg.Callees[fi])
	}
	slab := make([]vrange.Value, 2*width)
	for fi, f := range cg.Funcs {
		k := len(f.Params) + len(cg.Callees[fi])
		d.inputs[fi].vec, d.prevIn[fi], slab = slab[:k:k], slab[k:k:2*k], slab[2*k:]
	}
	d.scratch = make([]*engineScratch, n)
	d.records = make([]*StoredFunc, n)
	d.settled = make([]*settled, n)
	if cfg.FuncStore != nil {
		d.bodyEnc = make([][]byte, n)
		d.bodyFPs = make([]uint64, n)
		d.configFP = configFingerprint(cfg)
	}
	if d.workers <= 0 {
		d.workers = runtime.GOMAXPROCS(0)
	}
	d.tables = make([]*vrange.Interner, d.workers)
	d.memos = make([]*runMemo, d.workers)
	for w := range d.memos {
		d.memos[w] = memoPool.Get().(*runMemo)
	}
	d.internHint = p.NumInstrs() + p.NumInstrs()/4
	if d.workers > 1 {
		d.internHint /= d.workers
	}
	// Only cyclic SCCs of several members need the call order; the
	// others share the graph's member lists.
	d.sccFuncs = cg.SCCs
	var pos []int
	for s, members := range cg.SCCs {
		if len(members) == 1 {
			continue
		}
		if pos == nil {
			pos = make([]int, n)
			for i, f := range callOrder(p) {
				pos[cg.Index[f]] = i
			}
			d.sccFuncs = slices.Clone(cg.SCCs)
		}
		ms := slices.Clone(members)
		sort.Slice(ms, func(a, b int) bool { return pos[ms[a]] < pos[ms[b]] })
		d.sccFuncs[s] = ms
	}
	return d
}

// run drives the outer fixpoint to convergence (or MaxPasses, or
// cancellation). A cancelled run returns a typed *AnalysisError carrying
// the partial stats; a run that exhausts MaxPasses without converging
// demotes every surviving optimistic ⊤ value to ⊥ (optimism is only sound
// at a fixed point) and records a non-convergence diagnostic per affected
// function.
func (d *driver) run(ctx context.Context) (*Result, error) {
	d.ctx = ctx
	res := &Result{Prog: d.prog, Funcs: make(map[*ir.Func]*FuncResult, len(d.prog.Funcs))}
	passes := d.cfg.MaxPasses
	if !d.cfg.Interprocedural || passes < 1 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			d.cancelled.Store(true)
			break
		}
		d.pass = pass
		d.ip.beginPass(pass)
		res.Stats.Passes++
		d.changed.Store(false)
		var passSpan telemetry.SpanID = telemetry.NoSpan
		if d.cfg.Trace != nil {
			passSpan = d.cfg.Trace.Start(d.cfg.TraceParent, "driver", "pass "+strconv.Itoa(pass))
		}
		for _, wave := range d.cg.Waves {
			if d.cancelled.Load() || ctx.Err() != nil {
				d.cancelled.Store(true)
				break
			}
			d.runWave(wave, passSpan)
		}
		if d.cfg.Trace != nil {
			d.cfg.Trace.Annotate(passSpan, "changed", strconv.FormatBool(d.changed.Load()))
			d.cfg.Trace.End(passSpan)
		}
		if d.cancelled.Load() || !d.changed.Load() {
			break
		}
	}
	d.fillStats(&res.Stats)
	if d.cancelled.Load() {
		diags := append(d.collectDiags(), Diagnostic{
			Kind: DiagCancelled,
			SCC:  -1,
			Pass: d.pass,
			Msg:  fmt.Sprintf("analysis cancelled: %v", ctx.Err()),
		})
		return nil, &AnalysisError{Err: ctx.Err(), Stats: res.Stats, Diagnostics: diags}
	}
	res.Stats.Converged = !d.changed.Load()
	if !res.Stats.Converged {
		d.demoteUnconverged(res.Stats.Passes)
		res.Stats.StaleCertain = d.staleCertain
	}
	for i, f := range d.cg.Funcs {
		res.Funcs[f] = d.results[i]
	}
	res.Diagnostics = d.collectDiags()
	d.finishTelemetry(res, passes)
	d.ownResults()
	d.releaseTables()
	for _, m := range d.memos {
		m.release()
	}
	return res, nil
}

// ownResults copies the values of every engine-produced result no record
// shares into one exact-size slab per function, so the Result owns its
// ranges and no longer pins (or aliases) the worker tables' arenas, which
// releaseTables may then rewind. Spliced and stored results share their
// record's detached values, and degraded ones own their ⊥ values.
func (d *driver) ownResults() {
	for fi, fr := range d.results {
		if d.fromEngine[fi] {
			vrange.DetachAll(fr.val)
		}
	}
}

// finishTelemetry assembles the snapshot from the per-function effort
// slots (the ones fillStats sums) and attaches it to the result, with the
// interprocedural boundary-drop count, the interner gauges, the
// per-function pass-count histogram and the quality digest.
// Diagnostics are not repeated here: Result.Diagnostics and the engine
// spans' outcome labels carry them.
func (d *driver) finishTelemetry(res *Result, maxPasses int) {
	if d.cfg.Telemetry == nil {
		return
	}
	funcs := make([]telemetry.FuncMetrics, len(d.counts))
	for i, c := range d.counts {
		funcs[i] = telemetry.FuncMetrics{
			Func:            d.cg.Funcs[i].Name,
			Runs:            c.runs,
			Skips:           c.skips,
			Degraded:        c.degraded,
			RunMetrics:      c.eff.RunMetrics,
			LatticeCounters: c.lattice,
		}
	}
	snap := telemetry.NewSnapshot(funcs)
	snap.BoundaryDrops = d.ip.drops.Load()
	for _, it := range d.tables {
		if it == nil {
			continue
		}
		snap.InternLive += int64(it.Size())
		snap.InternArenaBytes += it.ArenaBytes()
		snap.InternEvictions += it.Evictions()
	}

	labels := make([]string, maxPasses+1)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	passRuns := telemetry.NewHistogram("pass-runs-per-func", labels...)
	for _, fm := range snap.Funcs {
		passRuns.Add(int(fm.Runs))
	}
	snap.PassRuns = passRuns

	q := d.buildQuality(snap, res.Stats.Converged)
	snap.Quality = q
	res.Quality = q
	res.Telemetry = snap
}

// buildQuality sums the functions' settled censuses (the demoted ones
// for functions the run demoted) into the prediction-quality digest and
// the snapshot's range-set-size histogram, and adds the run-level loss
// ledger. A census is settled once per result, or per store record, so
// a spliced function is never classified again, and the digest is
// bit-identical for every worker count and costs nothing when telemetry
// is off.
func (d *driver) buildQuality(snap *telemetry.Snapshot, converged bool) *telemetry.Quality {
	q := telemetry.NewQuality()
	setSize := telemetry.NewHistogram("range-set-size", "⊤", "⊥", "∅", "1", "2", "3", "4", "5+")
	snap.RangeSetSize = setSize
	var log2Sum float64
	var measured int64
	for fi, f := range d.cg.Funcs {
		if d.results[fi] == nil {
			continue
		}
		st := d.settledFor(fi)
		c := st.census
		if !converged && st.demoted != nil {
			c = st.demoted
		}
		q.Add(f.Name, c)
		for i, n := range c.SetSize {
			setSize.Counts[i] += n
		}
		log2Sum += c.Log2Width
		measured += c.Row.Point + c.Row.Narrow + c.Row.Wide
	}
	q.Loss["widen"] = snap.Totals.Widens
	q.Loss["recursion-pin"] = d.ip.recWidens.Load()
	q.Loss["demotion"] = d.demotedTop
	q.Loss["phi-hull"] = snap.Totals.PhiHulls
	// assert-tighten counts precision *gained* (the ledger's negative
	// entry); it is stored positive so metric counters stay monotone.
	q.Loss["assert-tighten"] = snap.Totals.AssertTightens
	q.StaleCertain = d.staleCertain
	if q.Branches > 0 {
		q.CertainRatio = float64(q.Certain) / float64(q.Branches)
	}
	if measured > 0 {
		q.MeanLog2Width = log2Sum / float64(measured)
	}
	return q
}

// fillStats sums the per-function effort slots into s.
func (d *driver) fillStats(s *Stats) {
	var e Effort
	for i := range d.counts {
		c := &d.counts[i]
		e.add(&c.eff)
		s.FuncsAnalyzed += c.runs
		s.FuncsSkipped += c.skips
		s.FuncsSpliced += c.spliced
		s.FuncsDegraded += c.degraded
	}
	s.ExprEvals = e.ExprEvals
	s.PhiEvals = e.PhiEvals
	s.FlowVisits = e.FlowVisits
	s.DerivedLoops = e.DeriveHits
	s.FailedDerives = e.DeriveMiss
	s.SubOps = e.SubOps
	s.RecWidens = d.ip.recWidens.Load()
}

// collectDiags flattens the per-function diagnostic slots in
// function-index order — the same order for every worker count.
func (d *driver) collectDiags() []Diagnostic {
	var out []Diagnostic
	for _, ds := range d.diags {
		out = append(out, ds...)
	}
	return out
}

// demoteUnconverged applies the non-convergence contract: any ⊤ a
// function still reports after MaxPasses is an optimistic assumption that
// was never validated, so it is demoted to ⊥ (Wegman–Zadeck optimism is
// only sound at a fixed point) and the function gets a DiagNonConvergence
// diagnostic. Branch probabilities in demoted functions DO need patching:
// the final engine run computed them from ranges that were still moving,
// so a range-certain P ∈ {0, 1} there is an unvalidated claim that one
// side never runs. Such certainty is not evidence that a branch side is
// dead, so those predictions fall back to the heuristics, and the edge
// frequencies are re-solved from the patched probabilities so downstream
// consumers stay consistent with what is now claimed. Softer range
// predictions are kept — they degrade gracefully — but certainty is
// all-or-nothing. The function's settled part holds the ⊤ cells and the
// demoted slices, which the result takes in place of its own. The values
// are demoted as a view: the result (the run's own copy, never a record)
// is marked demoted and FuncResult.Value reads its ⊤ cells as ⊥, so no
// value is copied or written, whether a store record shares them or not.
func (d *driver) demoteUnconverged(passes int) {
	for fi, fr := range d.results {
		if fr == nil {
			continue
		}
		st := d.settledFor(fi)
		if len(st.tops) == 0 {
			continue
		}
		fr.demoted = true
		fr.Prob, fr.Source, fr.EdgeFreq = st.prob, st.src, st.edgeFreq
		d.demotedTop += int64(len(st.tops))
		d.staleCertain += int64(st.stale)
		msg := fmt.Sprintf("fixpoint not reached after %d pass(es): %d optimistic ⊤ value(s) demoted to ⊥",
			passes, len(st.tops))
		if st.stale > 0 {
			msg += fmt.Sprintf("; %d stale range-certain prediction(s) re-derived from heuristics", st.stale)
		}
		d.diags[fi] = append(d.diags[fi], Diagnostic{
			Kind: DiagNonConvergence,
			Func: fr.Fn.Name,
			SCC:  d.cg.SCCID[fi],
			Pass: d.pass,
			Msg:  msg,
		})
	}
}

// settledFor returns fi's settled part, computed at most once per run
// and, with a store, at most once per record: a record's published part
// is reused unless this run has telemetry and the part lacks its census.
// It must be first called before demoteUnconverged swaps fi's slices.
func (d *driver) settledFor(fi int) *settled {
	if st := d.settled[fi]; st != nil {
		return st
	}
	withCensus := d.cfg.Telemetry != nil
	rec := d.records[fi]
	var old *settled
	if rec != nil {
		old = rec.settled.Load()
		if old != nil && (old.census != nil || !withCensus) {
			d.settled[fi] = old
			return old
		}
	}
	st := d.settle(fi, withCensus)
	if rec != nil {
		// A concurrent run may have published first; its part is
		// bit-identical, so losing the race costs nothing.
		rec.settled.CompareAndSwap(old, st)
	}
	d.settled[fi] = st
	return st
}

// settle computes fi's settled part from its final, not yet demoted,
// result, without writing into it, in one walk of its values and one of
// its branches: the ⊤ cells and, when there are any (the demotion's
// trigger), the demoted slices — the Fallback probability of each
// range-certain branch and the edge frequencies re-solved with them —
// and, when withCensus is set, the function's quality census before and
// after the demotion. The re-solve reuses the function's factored solver
// when this run's engine built one.
func (d *driver) settle(fi int, withCensus bool) *settled {
	fr := d.results[fi]
	f := fr.Fn
	st := &settled{}
	if withCensus {
		st.census = &telemetry.FuncCensus{}
	}
	for j, v := range fr.val {
		if v.IsTop() {
			st.tops = append(st.tops, int32(j))
		}
		if withCensus {
			addCell(st.census, v)
		}
	}
	if withCensus && len(st.tops) > 0 {
		dc := *st.census
		dc.Row.Bottom += dc.Row.Top
		dc.Row.Top = 0
		dc.SetSize[1] += dc.SetSize[0]
		dc.SetSize[0] = 0
		st.demoted = &dc
	}
	st.prob, st.src = fr.Prob, fr.Source
	for _, t := range f.Branches {
		id := t.Block.ID
		p, src := fr.Branch(t)
		stale := src == ByRange && (p == 0 || p == 1) && len(st.tops) > 0
		if stale {
			if st.stale == 0 {
				st.prob = append([]float64(nil), fr.Prob...)
				st.src = append([]PredictionSource(nil), fr.Source...)
			}
			st.stale++
			st.prob[id], st.src[id] = 0.5, ByHeuristic
			if d.cfg.Fallback != nil {
				st.prob[id] = d.cfg.Fallback(f, t)
			}
		}
		if !withCensus {
			continue
		}
		var evs []EvidenceItem
		if d.cfg.Evidence != nil && (src == ByHeuristic || stale) {
			evs = d.cfg.Evidence(f, t)
		}
		d.addBranch(st.census, p, src, evs)
		if st.demoted != nil {
			d.addBranch(st.demoted, st.prob[id], st.src[id], evs)
		}
	}
	for _, c := range []*telemetry.FuncCensus{st.census, st.demoted} {
		if c != nil && c.Row.Branches > 0 {
			c.Row.Score /= float64(c.Row.Branches)
		}
	}
	if st.demoted != nil {
		st.demoted.Row.StaleCertain = int64(st.stale)
	}
	st.edgeFreq = fr.EdgeFreq
	if st.stale > 0 {
		var sv *freq.Solver
		if sc := d.scratch[fi]; sc != nil {
			sv = sc.solver
		}
		sol := solveFreqs(f, sv, func(br *ir.Instr) (float64, bool) {
			return st.prob[br.Block.ID], true
		})
		st.edgeFreq = append([]float64(nil), sol.Edge...)
	}
	return st
}

// runWave analyzes every SCC of one wave, concurrently when the pool and
// the wave allow it. passSpan parents the engine spans; each worker slot
// draws its own trace lane so concurrent engine runs render on separate
// rows.
func (d *driver) runWave(wave []int, passSpan telemetry.SpanID) {
	nw := d.workers
	if nw > len(wave) {
		nw = len(wave)
	}
	if nw <= 1 {
		calc := vrange.NewCalcWith(d.cfg.Range, d.table(0))
		for _, scc := range wave {
			if d.cancelled.Load() {
				return
			}
			d.runSCC(scc, calc, passSpan, 1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		// Resolve the slot's table on the driver goroutine (lazy creation
		// must not race); the barrier below ends the slot's ownership.
		calc := vrange.NewCalcWith(d.cfg.Range, d.table(w))
		lane := int32(w + 1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(wave) || d.cancelled.Load() {
					return
				}
				d.runSCC(wave[i], calc, passSpan, lane)
			}
		}()
	}
	wg.Wait()
}

// tablePool recycles cons tables across analyses. A finished run's tables
// go back to the pool and the next Analyze of a similar program starts
// with its values and memo entries already resident — the steady
// re-analysis loop (vrpd re-running on every change) then interns almost
// entirely by table hit, paying neither construction nor first-touch
// misses. It is a mutex-guarded free list rather than a sync.Pool: the
// collector empties a sync.Pool every two GCs, and an analysis that
// allocates tens of megabytes runs about one GC per op, so nearly every
// analysis would build a cold table and grow it again. The rules:
//
//   - Free lists are keyed by the full vrange.Config: memo entries replay
//     results and stats deltas recorded under one configuration and would
//     be silently wrong under another. Config is a small comparable
//     struct, so it is its own map key.
//   - At most GOMAXPROCS tables per config are kept, the most one
//     analysis with the default worker count draws; more are dropped.
//   - A table whose Footprint exceeds pooledTableMaxBytes is dropped, so
//     a one-off huge analysis does not pin its tables for the life of the
//     process.
//   - A table whose live population exceeds pooledTableMaxLive is Reset
//     before it is pooled, keeping its grown slots and arena slabs.
//     Resetting is safe because ownResults has already copied every
//     returned value out of the arenas.
//   - Only a warm table, one pooled without Reset, runs the transfer memo
//     (table decides when a run takes it). The memo pays only when
//     expressions recur: on the corpus's and vrpd's edit loop's warm
//     tables it hits on every lookup, but on a new or Reset table it hit
//     only 19–23% of gen-10k lookups, and computing directly there made
//     gen-10k faster, while a 2¹⁷–2¹⁸-entry memo hit more and saved
//     nothing. On cold corpus tables the two are within noise.
var tablePool = struct {
	sync.Mutex
	free map[vrange.Config][]*vrange.Interner
}{free: map[vrange.Config][]*vrange.Interner{}}

// pooledTableMaxLive is the live population above which a released table
// is Reset instead of pooled warm. Warmth pays only when the next program
// shares values with the last one; a warm table that takes in an unlike
// big program keeps both populations (in a Workers: 1 probe, the second
// gen-10k program on the first one's warm table ended at 134,660 live
// values and 21.8 MB of arena, against 73,791 and 12.0 MB from a cold
// table). Measured with WithTelemetry at Workers: 1, the four gen-10k
// programs end at 61,574–73,791 live, so their tables are always reset,
// while these stay warm: the genprog default preset ends at 609, a table
// that takes every single-kernel edit of it in turn levels off at 940,
// and the corpus's one table, warm across all 43 programs, levels off at
// 8,331 after the first pass and stays there.
const pooledTableMaxLive = 1 << 15

// pooledTableMaxBytes is the Footprint above which a released table is
// dropped instead of pooled: a gen-10k table ends at 21.1 MB and is kept,
// a 100k-preset table at 182.5 MB and is not. A variable only so that
// tests can lower it.
var pooledTableMaxBytes int64 = 64 << 20

// testHookReleaseTable, when set, makes releaseTables Reset every table
// whatever its size and then hands it to the hook before pooling it
// (test-only: the recycle-safety tests fill the rewound slabs with
// garbage).
var testHookReleaseTable func(*vrange.Interner)

// testHookMemo, when set, overrides the warm-table rule: every table a
// run takes runs its memo exactly when *testHookMemo (test-only: the
// bit-identity tests force the memo on and off).
var testHookMemo *bool

// takeTable pops a pooled table for cfg; nil when there is none.
func takeTable(cfg vrange.Config) *vrange.Interner {
	tablePool.Lock()
	defer tablePool.Unlock()
	free := tablePool.free[cfg]
	n := len(free)
	if n == 0 {
		return nil
	}
	it := free[n-1]
	free[n-1] = nil
	tablePool.free[cfg] = free[:n-1]
	return it
}

// putTable pools it for cfg unless the free list is already full.
func putTable(cfg vrange.Config, it *vrange.Interner) {
	tablePool.Lock()
	defer tablePool.Unlock()
	if free := tablePool.free[cfg]; len(free) < runtime.GOMAXPROCS(0) {
		tablePool.free[cfg] = append(free, it)
	}
}

// table returns worker slot w's persistent interner, taking a pooled one
// or building one on first use. It decides once for the whole analysis
// whether the table runs its memo: only a table that still holds the
// last analysis's values does (see tablePool).
func (d *driver) table(w int) *vrange.Interner {
	if d.tables[w] == nil {
		it := takeTable(d.cfg.Range)
		if it == nil {
			it = vrange.NewInternerSized(d.internHint)
		}
		memo := it.Size() > 0
		if testHookMemo != nil {
			memo = *testHookMemo
		}
		it.SetMemo(memo)
		d.tables[w] = it
	}
	return d.tables[w]
}

// releaseTables hands the run's tables back to the config-keyed pool,
// dropping those over pooledTableMaxBytes and resetting those over
// pooledTableMaxLive. Must run after finishTelemetry (which reads the
// tables' gauges) and after ownResults (a reset rewinds the arena the
// results' values were carved from).
func (d *driver) releaseTables() {
	for i, it := range d.tables {
		d.tables[i] = nil
		if it == nil || it.Footprint() > pooledTableMaxBytes {
			continue
		}
		if it.Size() > pooledTableMaxLive || testHookReleaseTable != nil {
			it.Reset()
			if testHookReleaseTable != nil {
				testHookReleaseTable(it)
			}
		}
		putTable(d.cfg.Range, it)
	}
}

// runSCC analyzes one SCC's functions sequentially (mutual recursion needs
// each member to observe the previous member's update within the pass),
// on the worker slot's calc, whose counters restart for every function so
// sub-operation counts merge exactly. Each engine run is panic-isolated:
// a panic (or an exhausted step budget) degrades that one function to
// the ⊥/heuristic fallback and quarantines it, instead of killing the
// process from a worker goroutine.
func (d *driver) runSCC(scc int, calc *vrange.Calc, passSpan telemetry.SpanID, lane int32) {
	for _, fi := range d.sccFuncs[scc] {
		if d.poisoned[fi] {
			continue // quarantined: degraded result is already a fixpoint
		}
		if d.cancelled.Load() {
			return
		}
		if d.ctx.Err() != nil {
			d.cancelled.Store(true)
			return
		}
		c := &d.counts[fi]
		calc.ResetCounts()
		in := d.computeInputs(fi, calc)
		if !d.cfg.noSkip && d.results[fi] != nil &&
			in.hash == d.prevFP[fi] && bitEqualVec(in.vec, d.prevIn[fi]) {
			// Clean: the previous run saw bit-identical inputs, so a re-run
			// would reproduce the stored result and table updates exactly.
			// The slot gains only the input snapshot's sub-operations and
			// set-cap widenings.
			c.skips++
			c.eff.SubOps += calc.SubOps
			c.eff.Widens += calc.Widens
			continue
		}
		// Cross-request store: a hit with a confirmed key (same body, same
		// callee binding, bit-equal inputs, same config) replays a prior
		// run's outputs — by the same determinism argument as the skip
		// above, a fresh engine run would reproduce them bit for bit. The
		// interprocedural update runs live and the stored effort record is
		// replayed, so downstream passes, Stats and telemetry match a cold
		// run exactly.
		var sKey *FuncKey
		if d.cfg.FuncStore != nil {
			sKey = d.funcKey(fi, in)
			if sf, ok := d.cfg.FuncStore.Lookup(sKey); ok {
				if fr, bf, ok := d.spliceStored(fi, sf); ok {
					d.results[fi] = fr
					d.fromEngine[fi] = false
					d.records[fi] = sf
					d.update(fi, fr.val, bf, calc)
					d.keepInputs(fi, in)
					c.runs++
					c.spliced++
					c.eff.add(&sf.Effort)
					c.addLive(calc)
					continue
				}
				// Confirmed lookup that failed reconstruction: the engine
				// runs below.
			}
		}
		subOps0, widens0 := calc.SubOps, calc.Widens
		var engSpan telemetry.SpanID = telemetry.NoSpan
		if d.cfg.Trace != nil {
			engSpan = d.cfg.Trace.StartLane(passSpan, lane, "engine", d.cg.Funcs[fi].Name)
		}
		eng, panicked := d.runEngine(fi, calc, in, d.memos[lane-1])
		endSpan := func(outcome string) {
			if d.cfg.Trace != nil {
				d.cfg.Trace.Annotate(engSpan, "outcome", outcome)
				if eng != nil {
					d.cfg.Trace.Annotate(engSpan, "steps", fmt.Sprint(eng.stats.Steps))
				}
				d.cfg.Trace.End(engSpan)
			}
		}
		if panicked != nil {
			// The panicked engine was discarded with its counters; only
			// the calculator's work survives.
			d.degradeFunc(fi, calc, Diagnostic{
				Kind:       DiagPanic,
				Func:       d.cg.Funcs[fi].Name,
				SCC:        scc,
				Pass:       d.pass,
				Msg:        fmt.Sprintf("engine panicked: %v", panicked),
				PanicValue: panicked,
			})
			endSpan("degraded:panic")
			continue
		}
		switch eng.abort {
		case abortCancelled:
			endSpan("cancelled")
			d.cancelled.Store(true)
			return
		case abortStepBudget:
			// The aborted engine's partial work still happened; count it so
			// Stats stay an honest account of effort spent.
			c.eff.add(&eng.stats)
			d.degradeFunc(fi, calc, Diagnostic{
				Kind: DiagStepBudget,
				Func: d.cg.Funcs[fi].Name,
				SCC:  scc,
				Pass: d.pass,
				Msg: fmt.Sprintf("engine exceeded MaxEngineSteps=%d after %d steps; result degraded to ⊥",
					d.cfg.MaxEngineSteps, eng.stats.Steps),
			})
			endSpan("degraded:step-budget")
			continue
		}
		// The record carries the engine's share of the calculator's work,
		// taken before the update: a splice re-executes the input snapshot
		// and the update live and counts their share itself.
		eff := eng.stats
		eff.SubOps = calc.SubOps - subOps0
		eff.Widens += calc.Widens - widens0
		fr := eng.result()
		d.update(fi, fr.val, eng.blockFreq, eng.calc)
		d.results[fi] = fr
		d.fromEngine[fi] = sKey == nil
		if sKey != nil {
			// The record is the result, its values detached from the
			// table's arena. If this run's result is the final one,
			// settledFor attaches its settled part to the record.
			vrange.DetachAll(fr.val)
			rec := &StoredFunc{FuncResult: *fr, BlkFreq: append([]float64(nil), eng.fr.Block...), Effort: eff}
			rec.Fn = nil
			d.cfg.FuncStore.Store(sKey.Detach(), rec)
			d.records[fi] = rec
		}
		d.keepInputs(fi, in)
		c.runs++
		c.eff.add(&eng.stats)
		c.addLive(calc)
		endSpan("ok")
		eng.recycle()
	}
}

// update folds fi's values into the interprocedural tables and records
// whether the pass changed any of them.
func (d *driver) update(fi int, val []vrange.Value, bf func(*ir.Block) float64, calc *vrange.Calc) {
	if d.ip.update(fi, val, bf, calc) {
		d.changed.Store(true)
	}
}

// runEngine runs one function's engine inside a recover barrier. On panic
// it returns (nil, recovered-value); the partially mutated engine is
// discarded. When telemetry is on, the run carries the pprof goroutine
// labels vrp_func and vrp_pass so CPU profiles attribute samples to the
// function and pass under analysis.
func (d *driver) runEngine(fi int, calc *vrange.Calc, in *funcInputs, memo *runMemo) (eng *engine, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			eng, panicked = nil, r
		}
	}()
	run := func() {
		sc := d.scratch[fi]
		if sc == nil {
			sc = newEngineScratch(d.cg.Funcs[fi])
			d.scratch[fi] = sc
		}
		// The run overwrites the superseded result's slices, but only
		// those an engine run allocated and no record shares: slices from
		// the funcstore's records or from degrading are never written.
		// Only a run's final results escape, and every path that abandons
		// this run (cancel, panic, step budget) replaces or discards the
		// result whose slices it overwrote.
		var prev *FuncResult
		if d.fromEngine[fi] {
			prev = d.results[fi]
		}
		eng = newEngine(d.ctx, d.cg.Funcs[fi], d.cfg, calc, d.prog, in, sc, memo, prev)
		eng.run()
	}
	if d.cfg.Telemetry != nil {
		pprof.Do(d.ctx, pprof.Labels(
			"vrp_func", d.cg.Funcs[fi].Name,
			"vrp_pass", strconv.Itoa(d.pass),
		), func(context.Context) { run() })
	} else {
		run()
	}
	return eng, nil
}

// degradeFunc replaces fi's result with the ⊥/heuristic fallback, folds
// the degraded values into the interprocedural tables (callers must see ⊥,
// not a stale optimistic range), quarantines the function, and records the
// diagnostic and the degraded run with the calculator's work.
func (d *driver) degradeFunc(fi int, calc *vrange.Calc, diag Diagnostic) {
	f := d.cg.Funcs[fi]
	fr, blkFreq := degradedResult(f, d.cfg)
	d.results[fi] = fr
	d.fromEngine[fi] = false
	d.records[fi] = nil
	d.poisoned[fi] = true
	d.update(fi, fr.val, blockFreqOf(f, blkFreq), calc)
	d.diags[fi] = append(d.diags[fi], diag)
	c := &d.counts[fi]
	c.runs++
	c.degraded++
	c.addLive(calc)
}

// computeInputs snapshots fi's interprocedural inputs into its scratch
// snapshot and fingerprints them. Merge sub-operations accrue to calc.
// The snapshot is valid until fi's next visit; keepInputs keeps its
// vector.
func (d *driver) computeInputs(fi int, calc *vrange.Calc) *funcInputs {
	np := len(d.cg.Funcs[fi].Params)
	callees := d.cg.Callees[fi]
	in := &d.inputs[fi]
	vec := in.vec[:np+len(callees)] // both of fi's vectors have this capacity
	d.ip.formals(fi, vec[:np], calc)
	for k, ci := range callees {
		vec[np+k] = d.ip.retVals[ci]
	}
	*in = funcInputs{
		vec:     vec,
		params:  vec[:np:np],
		rets:    vec[np:],
		callees: callees,
		index:   d.cg.Index,
		hash:    vrange.HashValues(vec),
	}
	return in
}

// keepInputs makes in, fi's snapshot of a run or splice, the inputs of
// fi's last run: its vector becomes prevIn[fi], and the vector that
// replaces becomes the scratch of fi's next snapshot.
func (d *driver) keepInputs(fi int, in *funcInputs) {
	d.prevIn[fi], in.vec = in.vec, d.prevIn[fi]
	d.prevFP[fi] = in.hash
}

// bitEqualVec confirms a fingerprint match exactly, making hash collisions
// harmless.
func bitEqualVec(a, b []vrange.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].BitEqual(b[i]) {
			return false
		}
	}
	return true
}
