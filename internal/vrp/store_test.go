package vrp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"vrp/internal/genprog"
	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// memStore is a minimal conforming FuncStore: buckets by fingerprint
// triple, confirms with SameKey, counts collisions, never unifies.
type memStore struct {
	mu         sync.Mutex
	buckets    map[[3]uint64][]memEntry
	hits       int64
	misses     int64
	collisions int64
	stored     int64
}

type memEntry struct {
	key *FuncKey
	sf  *StoredFunc
}

func newMemStore() *memStore {
	return &memStore{buckets: map[[3]uint64][]memEntry{}}
}

func fpTriple(k *FuncKey) [3]uint64 { return [3]uint64{k.BodyFP, k.InputFP, k.ConfigFP} }

func (s *memStore) Lookup(key *FuncKey) (*StoredFunc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bucket := s.buckets[fpTriple(key)]
	for _, e := range bucket {
		if e.key.SameKey(key) {
			s.hits++
			return e.sf, true
		}
	}
	if len(bucket) > 0 {
		s.collisions++
	}
	s.misses++
	return nil, false
}

func (s *memStore) Store(key *FuncKey, sf *StoredFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := fpTriple(key)
	for _, e := range s.buckets[fp] {
		if e.key.SameKey(key) {
			return
		}
	}
	s.buckets[fp] = append(s.buckets[fp], memEntry{key: key, sf: sf})
	s.stored++
}

// clobberStore degrades every fingerprint to one constant before
// delegating, forcing all entries into a single bucket. With the
// fingerprints useless, only the SameKey confirm separates functions —
// so any result difference under this store is a missing-confirm bug.
type clobberStore struct{ inner *memStore }

func (c *clobberStore) clobber(key *FuncKey) *FuncKey {
	k := *key
	k.BodyFP, k.InputFP, k.ConfigFP = 0xC0111DED, 0xC0111DED, 0xC0111DED
	return &k
}

func (c *clobberStore) Lookup(key *FuncKey) (*StoredFunc, bool) {
	return c.inner.Lookup(c.clobber(key))
}

func (c *clobberStore) Store(key *FuncKey, sf *StoredFunc) {
	c.inner.Store(c.clobber(key), sf)
}

// storeTestProgram builds an n-kernel program whose kernel editK (when
// >= 0) has one branch constant shifted. Every kernel returns the same
// constant on both arms, so the edit changes that kernel's body without
// changing its return range — the dirty cone of the edit is exactly the
// kernel itself, and an incremental analysis should splice all others.
func storeTestProgram(n, editK int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		c := 10 + i
		if i == editK {
			c += 77
		}
		fmt.Fprintf(&b, "func f%d(a) {\n\tvar x = a + %d;\n\tif (x < %d) {\n\t\treturn %d;\n\t}\n\treturn %d;\n}\n",
			i, i, c, i+1, i+1)
	}
	b.WriteString("func main() {\n\tvar s = input();\n\tvar t = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "\tt += f%d(s);\n", i)
	}
	b.WriteString("\tprint(t);\n}\n")
	return b.String()
}

// sameResult asserts two analyses of the same source are bit-identical:
// branch probabilities and sources, per-register values, edge
// frequencies, and every Stats field except FuncsSpliced.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gb, wb := got.Branches(), want.Branches()
	if len(gb) != len(wb) {
		t.Fatalf("%s: %d branches, want %d", label, len(gb), len(wb))
	}
	for i := range gb {
		if gb[i].Fn.Name != wb[i].Fn.Name || gb[i].Prob != wb[i].Prob || gb[i].Source != wb[i].Source {
			t.Errorf("%s: branch %d = {%s %v %v}, want {%s %v %v}", label, i,
				gb[i].Fn.Name, gb[i].Prob, gb[i].Source,
				wb[i].Fn.Name, wb[i].Prob, wb[i].Source)
		}
	}
	for _, wf := range want.Prog.Funcs {
		wr := want.Funcs[wf]
		var gr *FuncResult
		for _, gf := range got.Prog.Funcs {
			if gf.Name == wf.Name {
				gr = got.Funcs[gf]
			}
		}
		if (gr == nil) != (wr == nil) {
			t.Fatalf("%s: %s result presence mismatch", label, wf.Name)
		}
		if wr == nil {
			continue
		}
		gv, wv := values(gr), values(wr)
		if len(gv) != len(wv) {
			t.Fatalf("%s: %s has %d regs, want %d", label, wf.Name, len(gv), len(wv))
		}
		for i := range wv {
			if !gv[i].BitEqual(wv[i]) {
				t.Errorf("%s: %s r%d = %v, want %v", label, wf.Name, i, gv[i], wv[i])
			}
		}
		if len(gr.EdgeFreq) != len(wr.EdgeFreq) {
			t.Fatalf("%s: %s edge count mismatch", label, wf.Name)
		}
		for i := range wr.EdgeFreq {
			if gr.EdgeFreq[i] != wr.EdgeFreq[i] {
				t.Errorf("%s: %s edge %d freq = %v, want %v", label, wf.Name, i, gr.EdgeFreq[i], wr.EdgeFreq[i])
			}
		}
	}
	gs, ws := got.Stats, want.Stats
	gs.FuncsSpliced, ws.FuncsSpliced = 0, 0
	if gs != ws {
		t.Errorf("%s: stats = %+v, want %+v", label, gs, ws)
	}
}

// TestFuncStoreSplice: a warm store fed by the base program lets a
// one-function edit re-analyze only that function (FuncsSpliced >= n-1),
// and the spliced result is bit-identical to a cold analysis.
func TestFuncStoreSplice(t *testing.T) {
	const n = 10
	st := newMemStore()

	cfg := DefaultConfig()
	cfg.FuncStore = st
	cold, err := Analyze(compileSrc(t, "store.mini", storeTestProgram(n, -1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.FuncsSpliced != 0 {
		t.Fatalf("cold run spliced %d functions from an empty store", cold.Stats.FuncsSpliced)
	}
	if st.stored == 0 {
		t.Fatal("cold run stored nothing")
	}

	edited := storeTestProgram(n, 3)
	warm, err := Analyze(compileSrc(t, "store.mini", edited), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FuncsSpliced < n-1 {
		t.Errorf("warm run spliced %d functions, want >= %d", warm.Stats.FuncsSpliced, n-1)
	}

	fresh, err := Analyze(compileSrc(t, "store.mini", edited), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm vs fresh", warm, fresh)

	// And the warmed store must keep being correct: re-analyzing the base
	// program now splices everything yet still matches a fresh cold run.
	rewarm, err := Analyze(compileSrc(t, "store.mini", storeTestProgram(n, -1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Stats.FuncsSpliced < rewarm.Stats.FuncsAnalyzed-1 {
		t.Errorf("re-warm spliced %d of %d analyzed", rewarm.Stats.FuncsSpliced, rewarm.Stats.FuncsAnalyzed)
	}
	sameResult(t, "rewarm vs cold", rewarm, cold)
}

// TestFuncStoreCollisionConfirmed: with every fingerprint clobbered to
// one constant, all entries share a single bucket and only the SameKey
// confirm tells functions apart. Results must stay bit-identical to a
// store-free analysis, and the scan must actually have seen colliding
// entries. Before confirmation existed, a fingerprint match alone would
// have served the wrong function's record here.
func TestFuncStoreCollisionConfirmed(t *testing.T) {
	inner := newMemStore()
	cfg := DefaultConfig()
	cfg.FuncStore = &clobberStore{inner: inner}

	src := storeTestProgram(8, -1)
	withStore, err := Analyze(compileSrc(t, "store.mini", src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.buckets) != 1 {
		t.Fatalf("clobbered store has %d buckets, want 1", len(inner.buckets))
	}
	if inner.collisions == 0 {
		t.Fatal("clobbered fingerprints produced no collisions — the test is not exercising the confirm path")
	}

	without, err := Analyze(compileSrc(t, "store.mini", src), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "clobbered store vs no store", withStore, without)

	// Warm pass through the colliding bucket: still bit-identical.
	warm, err := Analyze(compileSrc(t, "store.mini", src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FuncsSpliced == 0 {
		t.Error("warm clobbered run spliced nothing despite confirmed entries")
	}
	sameResult(t, "warm clobbered vs no store", warm, without)
}

// TestFuncStoreInputCollisionFreshAnalysis: two programs whose shared
// kernel body is identical but whose call sites feed it different
// argument ranges must never serve each other's records, even when the
// store's fingerprints are clobbered into one bucket.
func TestFuncStoreInputCollisionFreshAnalysis(t *testing.T) {
	inner := newMemStore()
	cfg := DefaultConfig()
	cfg.FuncStore = &clobberStore{inner: inner}

	shared := "func g(a) {\n\tif (a < 50) {\n\t\treturn 1;\n\t}\n\treturn 2;\n}\n"
	progA := shared + "func main() {\n\tvar t = g(10);\n\tprint(t);\n}\n"
	progB := shared + "func main() {\n\tvar t = g(90);\n\tprint(t);\n}\n"

	resA, err := Analyze(compileSrc(t, "store.mini", progA), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Analyze(compileSrc(t, "store.mini", progB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	freshA, err := Analyze(compileSrc(t, "store.mini", progA), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freshB, err := Analyze(compileSrc(t, "store.mini", progB), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "program A through colliding store", resA, freshA)
	sameResult(t, "program B through colliding store", resB, freshB)
}

// TestFuncStoreWorkerDeterminism: splicing must not depend on engine
// parallelism — a warm parallel run equals a fresh sequential one.
func TestFuncStoreWorkerDeterminism(t *testing.T) {
	gcfg := genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}
	base := genprog.Source(gcfg)
	edited, ok := genprog.EditFunc(base, 5, 123)
	if !ok {
		t.Fatal("EditFunc failed on generated source")
	}

	st := newMemStore()
	cfg := DefaultConfig()
	cfg.FuncStore = st
	cfg.Workers = 1
	if _, err := Analyze(compileSrc(t, "store.mini", base), cfg); err != nil {
		t.Fatal(err)
	}

	cfg.Workers = 8
	warm, err := Analyze(compileSrc(t, "store.mini", edited), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.FuncsSpliced == 0 {
		t.Error("warm parallel run spliced nothing")
	}

	seq := DefaultConfig()
	seq.Workers = 1
	fresh, err := Analyze(compileSrc(t, "store.mini", edited), seq)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "warm 8-worker vs fresh sequential", warm, fresh)
}

// recordCopy is a deep, id-free copy of one stored record's slices.
type recordCopy struct {
	sf       *StoredFunc
	val      []vrange.Value
	edgeFreq []float64
	blkFreq  []float64
	prob     []float64
	src      []PredictionSource
	derived  []bool
}

// copyingStore is a memStore that keeps a deep copy of every record it
// is handed, to check later that no analysis wrote into the record.
type copyingStore struct {
	*memStore
	copies []recordCopy
}

func (s *copyingStore) Store(key *FuncKey, sf *StoredFunc) {
	c := recordCopy{
		sf:       sf,
		val:      make([]vrange.Value, len(sf.val)),
		edgeFreq: append([]float64(nil), sf.EdgeFreq...),
		blkFreq:  append([]float64(nil), sf.BlkFreq...),
		prob:     append([]float64(nil), sf.Prob...),
		src:      append([]PredictionSource(nil), sf.Source...),
		derived:  append([]bool(nil), sf.Derived...),
	}
	for i, v := range sf.val {
		c.val[i] = idFreeCopy(v)
	}
	s.memStore.Store(key, sf)
	s.mu.Lock()
	s.copies = append(s.copies, c)
	s.mu.Unlock()
}

// check fails t unless every record still holds what it was stored with,
// and returns how many records hold a ⊤ cell.
func (c *recordCopy) check(t *testing.T) (tops int) {
	t.Helper()
	sf := c.sf
	for i, v := range c.val {
		if !v.BitEqual(sf.val[i]) {
			t.Fatalf("record r%d changed: %v, stored %v", i, sf.val[i], v)
		}
		if v.IsTop() {
			tops++
		}
	}
	if !slices.Equal(c.edgeFreq, sf.EdgeFreq) || !slices.Equal(c.blkFreq, sf.BlkFreq) {
		t.Fatalf("record frequencies changed: edges %v, stored %v", sf.EdgeFreq, c.edgeFreq)
	}
	if !slices.Equal(c.prob, sf.Prob) || !slices.Equal(c.src, sf.Source) {
		t.Fatalf("record predictions changed: %v %v, stored %v %v", sf.Prob, sf.Source, c.prob, c.src)
	}
	if !slices.Equal(c.derived, sf.Derived) {
		t.Fatal("record derivation marks changed")
	}
	return tops
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoredRecordsNeverWritten: a record shares its slices with every
// result spliced from it, and a non-converged run demotes functions by
// swapping in their settled slices and reading their values through
// Value. After warm analyses of the
// unconverged program, its edit and the program again, which splice and
// demote functions, every record must still hold its ⊤ cells and its
// original values, predictions and frequencies.
func TestStoredRecordsNeverWritten(t *testing.T) {
	st := &copyingStore{memStore: newMemStore()}
	var spliced, demotedSpliced int64
	for _, name := range []string{"unconverged.mini", "unconverged-edit.mini", "unconverged.mini"} {
		p := compileSrc(t, name, readTestdata(t, name))
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(p, withBallLarus(cfg, p, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Converged {
			t.Fatalf("%s converged; the test needs the demotion path", name)
		}
		spliced += res.Stats.FuncsSpliced
		if res.Stats.FuncsSpliced > 0 {
			demotedSpliced += int64(len(diagsOfKind(res.Diagnostics, DiagNonConvergence)))
		}
	}
	if spliced == 0 || demotedSpliced == 0 {
		t.Fatalf("warm runs spliced %d functions and demoted %d; want both", spliced, demotedSpliced)
	}
	withTop := 0
	for i := range st.copies {
		if st.copies[i].check(t) > 0 {
			withTop++
		}
	}
	if withTop == 0 {
		t.Fatalf("none of %d records holds a ⊤ cell; nothing was demoted from a record", len(st.copies))
	}
}

// TestDemotionIsAView: a non-converged run demotes a function without
// copying or writing its values. After a warm edit of the unconverged
// program, every demoted function with a store record (spliced from it,
// or stored by this run) shares the record's value vector, and Value
// reads ⊥ at each of the function's ⊤ cells and the stored value
// everywhere else.
func TestDemotionIsAView(t *testing.T) {
	st := newMemStore()
	var d *driver
	var res *Result
	for _, name := range []string{"unconverged.mini", "unconverged-edit.mini"} {
		p := compileSrc(t, name, readTestdata(t, name))
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		d = newDriver(p, withBallLarus(cfg, p, nil))
		var err error
		if res, err = d.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if res.Stats.Converged {
			t.Fatalf("%s converged; the test needs the demotion path", name)
		}
	}
	demoted, spliced := 0, 0
	for fi, fr := range d.results {
		tops := d.settled[fi].tops
		if len(tops) == 0 {
			continue
		}
		demoted++
		rec := d.records[fi]
		if rec == nil {
			t.Fatalf("%s: demoted without a store record", fr.Fn.Name)
		}
		if d.counts[fi].spliced > 0 {
			spliced++
		}
		if &fr.val[0] != &rec.val[0] {
			t.Errorf("%s: demoted result does not share its record's value vector", fr.Fn.Name)
		}
		for r := range fr.Fn.NumRegs {
			got, stored := fr.Value(ir.Reg(r)), rec.val[r]
			if slices.Contains(tops, int32(r)) {
				if !got.IsBottom() || !stored.IsTop() {
					t.Errorf("%s r%d: Value %v, stored %v; want ⊥ over a stored ⊤", fr.Fn.Name, r, got, stored)
				}
			} else if !got.BitEqual(stored) {
				t.Errorf("%s r%d: Value %v, want the stored %v", fr.Fn.Name, r, got, stored)
			}
		}
	}
	if demoted == 0 || spliced == 0 {
		t.Fatalf("the warm edit demoted %d functions, %d of them spliced; want both", demoted, spliced)
	}
}

// shortStore serves its records with the last block's prediction cut
// off, a shape that fits no function.
type shortStore struct{ *memStore }

func (s shortStore) Lookup(key *FuncKey) (*StoredFunc, bool) {
	sf, ok := s.memStore.Lookup(key)
	if !ok {
		return nil, false
	}
	c := &StoredFunc{FuncResult: sf.FuncResult, BlkFreq: sf.BlkFreq, Effort: sf.Effort}
	c.Prob = c.Prob[:len(c.Prob)-1]
	return c, true
}

// TestSpliceShapeMismatchFallsThrough: a confirmed record whose slices
// do not fit the function is a miss. The engine runs instead, and the
// output equals a cold analysis.
func TestSpliceShapeMismatchFallsThrough(t *testing.T) {
	src := readTestdata(t, "unconverged.mini")
	analyze := func(st FuncStore) *Result {
		p := compileSrc(t, "unconverged.mini", src)
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(p, withBallLarus(cfg, p, nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := analyze(nil)
	st := shortStore{newMemStore()}
	analyze(st)
	confirmed := st.hits
	warm := analyze(st)
	if warm.Stats.FuncsSpliced != 0 {
		t.Errorf("spliced %d functions from misshapen records", warm.Stats.FuncsSpliced)
	}
	if st.hits == confirmed {
		t.Fatal("no confirmed lookups; the store served nothing")
	}
	sameAnalysis(t, "misshapen store vs cold", warm, cold)
}
