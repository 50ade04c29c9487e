package vrp

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// poisonTable fills every slab a just-reset table holds with garbage: it
// interns constants never seen before until the arena has to allocate a
// new slab, so each rewound slab has been carved and overwritten. A
// Result value that still aliased one of them would change under its
// owner.
func poisonTable(it *vrange.Interner) {
	c := vrange.NewCalcWith(DefaultConfig().Range, it)
	held := it.ArenaBytes()
	for it.ArenaBytes() == held {
		c.ConstVal(math.MinInt64/2 + poisonNext.Add(1))
	}
}

var poisonNext atomic.Int64

// resultSnapshot is a deep, id-free copy of everything a Result reports.
type resultSnapshot struct {
	vals     map[*ir.Func][]vrange.Value
	branches []Branch
	stats    Stats
}

func snapshotResult(r *Result) *resultSnapshot {
	s := &resultSnapshot{vals: map[*ir.Func][]vrange.Value{}, branches: r.Branches(), stats: r.Stats}
	for f, fr := range r.Funcs {
		vs := values(fr)
		for i, v := range vs {
			vs[i] = idFreeCopy(v)
		}
		s.vals[f] = vs
	}
	return s
}

// idFreeCopy copies v with a zero intern id, so BitEqual against it walks
// the ranges instead of short-circuiting on the (kept) id.
func idFreeCopy(v vrange.Value) vrange.Value {
	switch v.Kind() {
	case vrange.Top:
		return vrange.TopValue()
	case vrange.Bottom:
		return vrange.BottomValue()
	}
	return vrange.FromRanges(append([]vrange.Range(nil), v.Ranges...)...)
}

// check fails t unless r still reports exactly what was snapshotted.
func (s *resultSnapshot) check(t *testing.T, label string, r *Result) {
	t.Helper()
	for f, want := range s.vals {
		got := values(r.Funcs[f])
		for i := range want {
			if !want[i].BitEqual(got[i]) {
				t.Fatalf("%s: %s r%d changed: %v, snapshot %v", label, f.Name, i, got[i], want[i])
			}
		}
	}
	branchesEqual(t, label, r.Branches(), s.branches)
	if r.Stats != s.stats {
		t.Errorf("%s: Stats changed: %+v, snapshot %+v", label, r.Stats, s.stats)
	}
}

// vectorOwners records which FuncResult owns each value vector handed
// out so far, keyed by the vector's first element.
type vectorOwners map[*vrange.Value]string

// add fails t if any of r's value vectors is already owned: by another
// function of r, or by a Result returned earlier.
func (o vectorOwners) add(t *testing.T, label string, r *Result) {
	t.Helper()
	for f, fr := range r.Funcs {
		if len(fr.val) == 0 {
			continue
		}
		owner := label + " " + f.Name
		if prev, ok := o[&fr.val[0]]; ok {
			t.Fatalf("%s shares its value vector with %s", owner, prev)
		}
		o[&fr.val[0]] = owner
	}
}

// TestResultsSurviveTableRecycling pins the ownership contract that lets
// the driver reset and re-pool its cons tables and recycle value vectors
// across passes: a returned Result owns its values. Program A is analyzed
// once for reference; then every released table is reset and its rewound
// slabs are filled with garbage. A is analyzed again, and gen-10k-sized
// programs are analyzed through the recycled tables sequentially; then A
// and the big programs again from parallel analyses with eight workers
// each. Every held Result must keep what it first reported bit for bit,
// the parallel results must match the sequential ones, and no two
// FuncResults of any Result may share a value vector.
func TestResultsSurviveTableRecycling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	owners := vectorOwners{}
	progA := compileSrc(t, "a.mini", genprog.Source(genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}))
	want, err := Analyze(progA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	owners.add(t, "reference", want)
	snap := snapshotResult(want)

	testHookReleaseTable = poisonTable
	defer func() { testHookReleaseTable = nil }()
	resA, err := Analyze(progA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	owners.add(t, "program A", resA)
	snap.check(t, "program A re-analyzed", resA)
	snap.check(t, "reference after re-analysis", want)

	big, _ := genprog.Preset("10k")
	const nBig = 2
	progs := make([]*ir.Program, nBig)
	seq := make([]*resultSnapshot, nBig)
	held := make([]*Result, nBig)
	for j := range progs {
		c := big
		c.Seed += uint64(j)
		progs[j] = compileSrc(t, fmt.Sprintf("big%d.mini", j), genprog.Source(c))
		held[j], err = Analyze(progs[j], cfg)
		if err != nil {
			t.Fatal(err)
		}
		owners.add(t, fmt.Sprintf("sequential %d", j), held[j])
		seq[j] = snapshotResult(held[j])
		runtime.GC()
		snap.check(t, fmt.Sprintf("program A after sequential analysis %d", j), resA)
		for i := 0; i < j; i++ {
			seq[i].check(t, fmt.Sprintf("sequential %d after sequential analysis %d", i, j), held[i])
		}
	}

	par := cfg
	par.Workers = 8
	var wg sync.WaitGroup
	all := append([]*ir.Program{progA, progA}, progs...)
	results := make([]*Result, len(all))
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Analyze(all[i], par)
		}()
	}
	wg.Wait()
	runtime.GC()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		label := fmt.Sprintf("parallel analysis %d", i)
		owners.add(t, label, r)
		if i < 2 {
			snap.check(t, label+" vs program A", r)
		} else {
			seq[i-2].check(t, label+" vs sequential", r)
		}
	}
	snap.check(t, "program A after parallel analyses", resA)
	for i := range held {
		seq[i].check(t, fmt.Sprintf("sequential %d after parallel analyses", i), held[i])
	}
}

// drainTables empties the pool's free list for cfg.
func drainTables(cfg vrange.Config) {
	tablePool.Lock()
	delete(tablePool.free, cfg)
	tablePool.Unlock()
}

// pooledTables returns a copy of the pool's free list for cfg.
func pooledTables(cfg vrange.Config) []*vrange.Interner {
	tablePool.Lock()
	defer tablePool.Unlock()
	return append([]*vrange.Interner(nil), tablePool.free[cfg]...)
}

// TestTablePoolSurvivesGC pins that garbage collection does not empty the
// table pool: an analysis after two GCs takes the table the previous one
// released instead of building a new one.
func TestTablePoolSurvivesGC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	prog := compileSrc(t, "a.mini", genprog.Source(genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}))
	drainTables(cfg.Range)
	if _, err := Analyze(prog, cfg); err != nil {
		t.Fatal(err)
	}
	first := pooledTables(cfg.Range)
	if len(first) != 1 {
		t.Fatalf("a Workers: 1 analysis pooled %d tables, want 1", len(first))
	}
	runtime.GC()
	runtime.GC()
	if _, err := Analyze(prog, cfg); err != nil {
		t.Fatal(err)
	}
	if got := pooledTables(cfg.Range); len(got) != 1 || got[0] != first[0] {
		t.Fatalf("after two GCs the analysis built a new table: pool %p, then %p", first, got)
	}
}

// TestTablePoolBounds pins the pool's two limits: parallel analyses with
// eight workers each leave at most GOMAXPROCS tables per config, and a
// table whose footprint exceeds pooledTableMaxBytes is dropped.
func TestTablePoolBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	prog := compileSrc(t, "wide.mini", genprog.Source(genprog.Config{Seed: 3, Funcs: 24, Diamonds: 2, LoopDepth: 1}))
	drainTables(cfg.Range)
	var released atomic.Int64
	testHookReleaseTable = func(*vrange.Interner) { released.Add(1) }
	defer func() { testHookReleaseTable = nil }()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Analyze(prog, cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	n, max := len(pooledTables(cfg.Range)), runtime.GOMAXPROCS(0)
	if released.Load() <= int64(max) {
		t.Fatalf("the analyses released %d tables, too few to test the bound of %d", released.Load(), max)
	}
	if n == 0 || n > max {
		t.Fatalf("pool holds %d tables after parallel analyses, want 1..%d", n, max)
	}
	testHookReleaseTable = nil

	cfg.Workers = 1
	drainTables(cfg.Range)
	if _, err := Analyze(prog, cfg); err != nil {
		t.Fatal(err)
	}
	kept := pooledTables(cfg.Range)
	if len(kept) != 1 {
		t.Fatalf("pooled %d tables, want 1", len(kept))
	}
	defer func(old int64) { pooledTableMaxBytes = old }(pooledTableMaxBytes)
	pooledTableMaxBytes = kept[0].Footprint() - 1
	if _, err := Analyze(prog, cfg); err != nil {
		t.Fatal(err)
	}
	if got := pooledTables(cfg.Range); len(got) != 0 {
		t.Fatalf("a table of %d bytes, above the %d-byte ceiling, was pooled", got[0].Footprint(), pooledTableMaxBytes)
	}
}

// TestMemoOnlyOnWarmTables pins the warm-table rule of the transfer memo:
// a run on a new or Reset table never consults it, a run on a table pooled
// warm does (and, re-analyzing the same program, hits on every lookup),
// and forcing it on or off changes no result, Stats field or canonical
// telemetry.
func TestMemoOnlyOnWarmTables(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	analyze := func(label string, prog *ir.Program) *Result {
		t.Helper()
		c := cfg
		c.Telemetry = telemetry.New()
		res, err := Analyze(prog, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	gcfg, _ := genprog.Preset("10k")
	gen10k := compileSrc(t, "gen-10k.mini", genprog.Source(gcfg))

	// A gen-10k table ends far above pooledTableMaxLive, so the second
	// run takes it back Reset: cold both times.
	drainTables(cfg.Range)
	for i, label := range []string{"gen-10k on a new table", "gen-10k on a Reset table"} {
		if pooled := pooledTables(cfg.Range); i == 1 && (len(pooled) != 1 || pooled[0].Size() != 0) {
			t.Fatalf("%s: the pool holds %d tables, want the first run's, Reset", label, len(pooled))
		}
		tot := analyze(label, gen10k).Telemetry.Totals
		if n := tot.MemoHits + tot.MemoMisses; n != 0 {
			t.Errorf("%s: %d transfer-memo lookups, want 0", label, n)
		}
	}

	def := compileSrc(t, "default.mini", genprog.Source(genprog.Default()))
	drainTables(cfg.Range)
	for i := 1; i <= 3; i++ {
		tot := analyze("default", def).Telemetry.Totals
		lookups := tot.MemoHits + tot.MemoMisses
		switch {
		case i == 1 && lookups != 0:
			t.Errorf("default, analysis 1 (new table): %d transfer-memo lookups, want 0", lookups)
		case i == 3 && (tot.MemoHits == 0 || tot.MemoMisses != 0):
			t.Errorf("default, analysis 3 (warm table): %d transfer-memo hits and %d misses, want every lookup a hit",
				tot.MemoHits, tot.MemoMisses)
		}
	}

	defer func() { testHookMemo = nil }()
	forced := func(label string, prog *ir.Program, on bool) *Result {
		t.Helper()
		testHookMemo = &on
		res := analyze(label, prog)
		tot := res.Telemetry.Totals
		if lookups := tot.MemoHits + tot.MemoMisses; (lookups > 0) != on {
			t.Fatalf("%s with the memos forced on=%v: %d transfer-memo lookups", label, on, lookups)
		}
		return res
	}
	// sameResult compares Stats too (all of it: no store, so nothing
	// is spliced).
	check := func(name string, prog *ir.Program) {
		t.Helper()
		on, off := forced(name, prog, true), forced(name, prog, false)
		sameResult(t, name+" memos off vs on", off, on)
		if a, b := off.Telemetry.Canon(), on.Telemetry.Canon(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: canonical telemetry differs with the memos off:\n%swith them on:\n%s", name, a.Summary(), b.Summary())
		}
	}
	check("gen-10k", gen10k)
	for _, cp := range corpus.All() {
		check(cp.Name, compileSrc(t, cp.Name+".mini", cp.Source))
	}
}
