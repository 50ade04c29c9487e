package vrp

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vrp/internal/freq"
	"vrp/internal/genprog"
	"vrp/internal/heuristics"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
)

// hookCounts counts the calls a run makes to its Fallback and Evidence
// hooks.
type hookCounts struct {
	fallback, evidence atomic.Int64
}

// withBallLarus returns cfg with the Ball–Larus Fallback and Evidence
// hooks over p, as the facade installs them, counting calls into hc when
// it is non-nil.
func withBallLarus(cfg Config, p *ir.Program, hc *hookCounts) Config {
	bl := heuristics.NewBallLarus(p)
	cfg.Fallback = func(f *ir.Func, br *ir.Instr) float64 {
		if hc != nil {
			hc.fallback.Add(1)
		}
		return bl.Prob(f, br)
	}
	cfg.Evidence = func(f *ir.Func, br *ir.Instr) []EvidenceItem {
		if hc != nil {
			hc.evidence.Add(1)
		}
		evs := bl.Explain(f, br)
		items := make([]EvidenceItem, len(evs))
		for i, ev := range evs {
			items[i] = EvidenceItem{Name: ev.Name, Prob: ev.Prob}
		}
		return items
	}
	return cfg
}

// stackedEdits returns the genprog default program and n single-kernel
// edits of it, each applied on top of the previous one.
func stackedEdits(t *testing.T, n int) (base string, edits []string) {
	t.Helper()
	gcfg := genprog.Default()
	base = genprog.Source(gcfg)
	src := base
	for i := 0; i < n; i++ {
		var ok bool
		src, ok = genprog.EditFunc(src, (7+13*i)%gcfg.Funcs, int64(31+i))
		if !ok {
			t.Fatalf("EditFunc %d failed", i)
		}
		edits = append(edits, src)
	}
	return base, edits
}

// TestWarmEditSettlesDirtyConeOnly: a warm edit of an unconverged program
// takes the stale-prediction re-derivation, its re-solved frequencies and
// the heuristic evidence of every spliced function from the store
// records, so its Fallback and Evidence calls and its frequency
// factorizations scale with the functions the run re-ran, not with the
// program. Without settled parts the second edit below made 122 Fallback
// calls, 232 Evidence calls and 36 factorizations for 2 engine runs;
// with them it makes 19, 4 and 1.
func TestWarmEditSettlesDirtyConeOnly(t *testing.T) {
	base, edits := stackedEdits(t, 2)
	st := newMemStore()
	var hc hookCounts
	run := func(src string) *Result {
		p := compileSrc(t, "gen.mini", src)
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(p, withBallLarus(cfg, p, &hc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(base)
	run(edits[0])

	hc.fallback.Store(0)
	hc.evidence.Store(0)
	f0, _ := freq.Stats()
	res := run(edits[1])
	f1, _ := freq.Stats()

	s := res.Stats
	if s.Converged || s.StaleCertain == 0 {
		t.Fatalf("edit converged=%v with %d stale-certain predictions; the gate needs the demotion path",
			s.Converged, s.StaleCertain)
	}
	runs := s.FuncsAnalyzed - s.FuncsSpliced
	if runs <= 0 || s.FuncsSpliced == 0 {
		t.Fatalf("edit ran %d engines and spliced %d functions; want a warm edit", runs, s.FuncsSpliced)
	}
	fb, ev, fact := hc.fallback.Load(), hc.evidence.Load(), f1-f0
	t.Logf("engine runs %d, spliced %d: Fallback %d, Evidence %d, factorizations %d",
		runs, s.FuncsSpliced, fb, ev, fact)
	// An engine run asks Fallback about each ⊥-controlled branch it
	// settles, and its function's settled part asks about each heuristic
	// or stale branch once more: a genprog kernel has about a dozen.
	const perRun = 16
	if fb > perRun*runs || ev > perRun*runs {
		t.Errorf("Fallback %d, Evidence %d calls for %d engine runs; want at most %d per run", fb, ev, runs, perRun)
	}
	// One factorization per function the engine ran; the demotion's
	// re-solves reuse them.
	if fact > 2*runs {
		t.Errorf("%d frequency factorizations for %d engine runs; want at most %d", fact, runs, 2*runs)
	}
}

// TestWarmEditCensusSplicedOnce: a warm edit takes the quality census of
// every spliced function from the settled part its record published, so
// it classifies only the values of the functions it re-ran. The second of
// two stacked edits must keep each spliced function's published part,
// pointer for pointer, settle a census only for the functions whose
// records it stored, and report the digest of a cold run.
func TestWarmEditCensusSplicedOnce(t *testing.T) {
	base, edits := stackedEdits(t, 2)
	st := newMemStore()
	run := func(src string, st FuncStore) (*driver, *Result) {
		p := compileSrc(t, "gen.mini", src)
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		cfg.Telemetry = telemetry.New()
		d := newDriver(p, withBallLarus(cfg, p, nil))
		res, err := d.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return d, res
	}
	run(base, st)
	run(edits[0], st)
	published := map[*StoredFunc]*settled{}
	for _, bucket := range st.buckets {
		for _, e := range bucket {
			published[e.sf] = e.sf.settled.Load()
		}
	}

	d, res := run(edits[1], st)
	if res.Stats.Converged {
		t.Fatal("edit converged; the census needs the demotion path")
	}
	spliced, censused := 0, 0
	for fi, f := range d.cg.Funcs {
		part := d.settled[fi]
		if part == nil || part.census == nil {
			t.Fatalf("%s: no census settled", f.Name)
		}
		if old, ok := published[d.records[fi]]; ok {
			spliced++
			if part != old {
				t.Errorf("%s: spliced function settled anew (part %p, its record published %p)", f.Name, part, old)
			}
			continue
		}
		censused++
		if d.records[fi] == nil || d.records[fi].settled.Load() != part {
			t.Errorf("%s: re-ran function's census is not published on its new record", f.Name)
		}
	}
	t.Logf("census settled for %d re-ran functions, %d spliced functions kept theirs", censused, spliced)
	if spliced == 0 || censused == 0 || censused >= spliced {
		t.Errorf("census settled for %d functions, %d spliced; want a warm edit's dirty cone", censused, spliced)
	}
	_, cold := run(edits[1], nil)
	sameAnalysis(t, "warm edit", res, cold)
}

// sameAnalysis extends sameResult to the post-fixpoint outputs: the
// diagnostics and the quality digest.
func sameAnalysis(t *testing.T, label string, got, want *Result) {
	t.Helper()
	sameResult(t, label, got, want)
	if !reflect.DeepEqual(got.Diagnostics, want.Diagnostics) {
		t.Errorf("%s: diagnostics\n%v\nwant\n%v", label, got.Diagnostics, want.Diagnostics)
	}
	if !reflect.DeepEqual(got.Quality, want.Quality) {
		t.Errorf("%s: quality digest\n%+v\nwant\n%+v", label, got.Quality, want.Quality)
	}
}

// TestWarmColdNonConverging: on the unconverged genprog default program,
// a run of stacked single-kernel edits through one store matches cold
// analyses bit for bit — predictions, the re-solved edge frequencies of
// demoted functions, diagnostics, StaleCertain and the quality digest —
// for Workers 1 and 8 and from goroutines sharing the store. The store
// is first warmed without telemetry, so the records' first settled parts
// lack evidence tallies that the later runs need.
func TestWarmColdNonConverging(t *testing.T) {
	base, edits := stackedEdits(t, 4)
	analyze := func(p *ir.Program, workers int, st FuncStore, tel bool) (*Result, error) {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.FuncStore = st
		if tel {
			cfg.Telemetry = telemetry.New()
		}
		return Analyze(p, withBallLarus(cfg, p, nil))
	}
	// session analyzes the base program without telemetry through st,
	// then the stacked edits with it (programs compiled up front, so a
	// session may run off the test goroutine).
	type session struct {
		progs   []*ir.Program
		workers int
		results []*Result
		err     error
	}
	newSession := func(workers int) *session {
		s := &session{workers: workers, progs: []*ir.Program{compileSrc(t, "gen.mini", base)}}
		for _, src := range edits {
			s.progs = append(s.progs, compileSrc(t, "gen.mini", src))
		}
		return s
	}
	run := func(s *session, st FuncStore) {
		if _, s.err = analyze(s.progs[0], s.workers, st, false); s.err != nil {
			return
		}
		for _, p := range s.progs[1:] {
			res, err := analyze(p, s.workers, st, true)
			if err != nil {
				s.err = err
				return
			}
			s.results = append(s.results, res)
		}
	}
	cold := make([]*Result, len(edits))
	for i, src := range edits {
		res, err := analyze(compileSrc(t, "gen.mini", src), 1, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res
	}
	if cold[0].Stats.Converged || cold[0].Stats.StaleCertain == 0 {
		t.Fatalf("cold edit converged=%v with %d stale-certain predictions; want the demotion path",
			cold[0].Stats.Converged, cold[0].Stats.StaleCertain)
	}
	check := func(label string, s *session) {
		if s.err != nil {
			t.Fatalf("%s: %v", label, s.err)
		}
		for i, res := range s.results {
			if res.Stats.FuncsSpliced == 0 {
				t.Errorf("%s edit %d spliced nothing", label, i)
			}
			sameAnalysis(t, fmt.Sprintf("%s edit %d", label, i), res, cold[i])
		}
	}

	for _, workers := range []int{1, 8} {
		s := newSession(workers)
		run(s, newMemStore())
		check(fmt.Sprintf("workers=%d", workers), s)
	}

	// Concurrent sessions share one store, so records and their settled
	// parts are published and read across goroutines.
	shared := newMemStore()
	sessions := []*session{newSession(1), newSession(2), newSession(8)}
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s, shared)
		}()
	}
	wg.Wait()
	for g, s := range sessions {
		check(fmt.Sprintf("session %d", g), s)
	}
}
