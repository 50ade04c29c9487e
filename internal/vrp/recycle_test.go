package vrp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vrp/internal/genprog"
	"vrp/internal/ir"
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
		vs := make([]vrange.Value, len(fr.Val))
		for i, v := range fr.Val {
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
		got := r.Funcs[f].Val
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

// TestResultsSurviveTableRecycling pins the ownership contract that lets
// the driver reset and re-pool its cons tables: a returned Result owns
// its values. Program A is analyzed once for reference; then every
// released table is reset and its rewound slabs are filled with garbage.
// A is analyzed again, and gen-10k-sized programs are re-analyzed through
// the recycled tables, sequentially and from parallel analyses with eight
// workers each. A's second Result must match the reference bit for bit
// throughout, and the parallel results must match the sequential ones.
func TestResultsSurviveTableRecycling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	progA := compileSrc(t, "a.mini", genprog.Source(genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}))
	want, err := Analyze(progA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotResult(want)

	testHookReleaseTable = poisonTable
	defer func() { testHookReleaseTable = nil }()
	resA, err := Analyze(progA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap.check(t, "program A re-analyzed", resA)

	big, _ := genprog.Preset("10k")
	const nBig = 2
	progs := make([]*ir.Program, nBig)
	seq := make([]*resultSnapshot, nBig)
	for j := range progs {
		c := big
		c.Seed += uint64(j)
		progs[j] = compileSrc(t, fmt.Sprintf("big%d.mini", j), genprog.Source(c))
		r, err := Analyze(progs[j], cfg)
		if err != nil {
			t.Fatal(err)
		}
		seq[j] = snapshotResult(r)
		runtime.GC()
		snap.check(t, fmt.Sprintf("program A after sequential analysis %d", j), resA)
	}

	par := cfg
	par.Workers = 8
	var wg sync.WaitGroup
	results := make([]*Result, nBig)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Analyze(progs[i], par)
		}()
	}
	wg.Wait()
	runtime.GC()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		seq[i].check(t, fmt.Sprintf("parallel analysis %d vs sequential", i), r)
	}
	snap.check(t, "program A after parallel analyses", resA)
}
