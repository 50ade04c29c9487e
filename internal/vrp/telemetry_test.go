package vrp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vrp/internal/genprog"
	"vrp/internal/telemetry"
)

// telemetrySrc mixes the behaviours the snapshot must account for: a
// derived loop, interprocedural calls analyzed across waves, branches and
// assertions — enough to populate every counter and histogram.
const telemetrySrc = `
func clamp(x) {
	if (x > 100) { return 100; }
	return x;
}
func sum(n) {
	var s = 0;
	for (var i = 0; i < n; i++) {
		s = s + clamp(i);
	}
	return s;
}
func main() {
	print(sum(50));
}
`

// tracedRun analyzes telemetrySrc with telemetry and tracing both on and
// returns the result (its Telemetry snapshot set) and the span tree.
func tracedRun(t *testing.T, workers int) (*Result, []telemetry.Span) {
	t.Helper()
	p := compile(t, telemetrySrc)
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Telemetry = telemetry.New()
	cfg.Trace = telemetry.NewTrace()
	res, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry is nil with telemetry enabled")
	}
	return res, cfg.Trace.Spans()
}

// TestTelemetryDeterministicAcrossWorkers is the telemetry half of the
// driver's bit-identity contract: the aggregated snapshot — counters,
// histograms and the quality digest — must be identical for the
// sequential and the maximally parallel schedule, once the
// schedule-dependent table-warmth counters are canonicalized away. Run
// under -race this also shakes out unsynchronized slot access. The
// timeline half is TestSpanTreeDeterministicAcrossWorkers.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	seq, _ := tracedRun(t, 1)
	par, _ := tracedRun(t, 8)
	a, b := seq.Telemetry.Canon(), par.Telemetry.Canon()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ between Workers=1 and Workers=8:\n%v\nvs\n%v", a.Summary(), b.Summary())
	}
}

// spanKeys reduces a span tree to the sorted multiset of its
// deterministic identities: ancestor path, category and name, and the
// sorted labels. Lanes and timings depend on the schedule and are
// dropped.
func spanKeys(spans []telemetry.Span) []string {
	paths := make([]string, len(spans))
	keys := make([]string, len(spans))
	for i, sp := range spans {
		// Parents are created before their children, so the parent's
		// path is already known.
		paths[i] = sp.Cat + ":" + sp.Name
		if sp.Parent != telemetry.NoSpan {
			paths[i] = paths[sp.Parent] + "/" + paths[i]
		}
		args := make([]string, 0, len(sp.Args))
		for k, v := range sp.Args {
			args = append(args, k+"="+v)
		}
		sort.Strings(args)
		keys[i] = strings.Join(append([]string{paths[i]}, args...), " ")
	}
	sort.Strings(keys)
	return keys
}

// countCat counts the span keys of category cat below a wave.
func countCat(keys []string, cat string) int {
	n := 0
	for _, k := range keys {
		if strings.Contains(k, "/"+cat+":") {
			n++
		}
	}
	return n
}

// TestSpanTreeDeterministicAcrossWorkers is the timeline half of the
// bit-identity contract: the span tree — every pass, wave, engine run,
// skip and splice with its labels — must be the same multiset for
// Workers 1 and 8, both cold and against a warm FuncStore (so splice
// spans are covered). Each worker count warms its own store with the
// base program, then analyzes a one-function edit of it.
func TestSpanTreeDeterministicAcrossWorkers(t *testing.T) {
	gcfg := genprog.Config{Seed: 7, Funcs: 12, Diamonds: 2, LoopDepth: 2}
	base := genprog.Source(gcfg)
	edited, ok := genprog.EditFunc(base, 5, 123)
	if !ok {
		t.Fatal("EditFunc failed on generated source")
	}
	run := func(workers int, warm bool) []string {
		cfg := DefaultConfig()
		cfg.Workers = workers
		if warm {
			cfg.FuncStore = newMemStore()
			if _, err := Analyze(compileSrc(t, "spans.mini", base), cfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Trace = telemetry.NewTrace()
		if _, err := Analyze(compileSrc(t, "spans.mini", edited), cfg); err != nil {
			t.Fatal(err)
		}
		return spanKeys(cfg.Trace.Spans())
	}
	for _, warm := range []bool{false, true} {
		seq, par := run(1, warm), run(8, warm)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("warm=%v: span trees differ between Workers=1 and Workers=8:\nseq: %q\npar: %q", warm, seq, par)
		}
		if countCat(seq, "engine") == 0 || countCat(seq, "skip") == 0 {
			t.Errorf("warm=%v: want engine and skip spans, got %q", warm, seq)
		}
		if got := countCat(seq, "splice"); (got > 0) != warm {
			t.Errorf("warm=%v: %d splice spans", warm, got)
		}
	}
}

// TestTelemetryMatchesStats cross-checks the snapshot and the span tree
// against the independently counted Stats: runs and skips must agree
// exactly, and there is one "pass N" span per pass.
func TestTelemetryMatchesStats(t *testing.T) {
	res, spans := tracedRun(t, 1)
	snap := res.Telemetry
	if snap.Totals.Runs != res.Stats.FuncsAnalyzed {
		t.Errorf("telemetry runs = %d, stats FuncsAnalyzed = %d", snap.Totals.Runs, res.Stats.FuncsAnalyzed)
	}
	if snap.Totals.Skips != res.Stats.FuncsSkipped {
		t.Errorf("telemetry skips = %d, stats FuncsSkipped = %d", snap.Totals.Skips, res.Stats.FuncsSkipped)
	}
	if snap.Totals.DeriveHits != res.Stats.DerivedLoops {
		t.Errorf("telemetry derive hits = %d, stats DerivedLoops = %d", snap.Totals.DeriveHits, res.Stats.DerivedLoops)
	}
	passes := 0
	for _, sp := range spans {
		if sp.Cat == "driver" && strings.HasPrefix(sp.Name, "pass ") {
			passes++
		}
	}
	if passes != res.Stats.Passes {
		t.Errorf("%d pass spans, stats Passes = %d", passes, res.Stats.Passes)
	}
	if snap.Totals.Steps <= 0 {
		t.Error("no engine steps recorded")
	}
	if snap.Totals.FlowPeak <= 0 || snap.Totals.SSAPeak <= 0 {
		t.Errorf("worklist peaks not recorded: flow=%d ssa=%d", snap.Totals.FlowPeak, snap.Totals.SSAPeak)
	}
	if snap.Totals.Asserts <= 0 || snap.Totals.PhiMerges <= 0 {
		t.Errorf("lattice counters not recorded: asserts=%d phi-merges=%d", snap.Totals.Asserts, snap.Totals.PhiMerges)
	}
	// One per-function slot per call-graph function, in index order.
	if len(snap.Funcs) != len(res.Prog.Funcs) {
		t.Errorf("snapshot has %d function slots, program has %d", len(snap.Funcs), len(res.Prog.Funcs))
	}
	// Histograms are populated and account for every final register value.
	total := 0
	for _, fr := range res.Funcs {
		total += len(fr.Val)
	}
	if got := snap.RangeSetSize.Total(); got != int64(total) {
		t.Errorf("range-set-size histogram totals %d values, program has %d registers", got, total)
	}
	if snap.PassRuns.Total() != int64(len(res.Prog.Funcs)) {
		t.Errorf("pass-runs histogram totals %d, want one sample per function (%d)", snap.PassRuns.Total(), len(res.Prog.Funcs))
	}
}

// TestTelemetryDisabledIsFree pins the other half of the contract: with
// telemetry off (the default), the result carries no snapshot. The
// counting itself is always on (each run's Effort record feeds Stats
// either way); only assembling the snapshot is skipped.
func TestTelemetryDisabledIsFree(t *testing.T) {
	res := analyze(t, telemetrySrc, DefaultConfig())
	if res.Telemetry != nil {
		t.Fatal("Result.Telemetry non-nil without Config.Telemetry")
	}
}

// TestTelemetryDegradedRun verifies the failure paths surface in both
// views: a step-budget degradation shows up as a degraded run in the
// function's counter slot and as the outcome label of its engine span.
func TestTelemetryDegradedRun(t *testing.T) {
	p := compile(t, telemetrySrc)
	cfg := DefaultConfig()
	cfg.MaxEngineSteps = 1
	cfg.Telemetry = telemetry.New()
	cfg.Trace = telemetry.NewTrace()
	res, err := Analyze(p, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Telemetry.Totals.Degraded == 0 {
		t.Error("no degraded runs recorded")
	}
	found := false
	for _, sp := range cfg.Trace.Spans() {
		if sp.Cat == "engine" && sp.Args["outcome"] == "degraded:step-budget" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no engine span with outcome degraded:step-budget")
	}
}

// TestTelemetryTraceExport round-trips a real traced analysis through
// the Chrome trace writer: the JSON must parse and hold one complete
// event per span, covering the pass and engine layers.
func TestTelemetryTraceExport(t *testing.T) {
	_, spans := tracedRun(t, 0)
	var buf bytes.Buffer
	if err := telemetry.WriteSpanChromeTrace(&buf, spans); err != nil {
		t.Fatalf("WriteSpanChromeTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	complete, pass0, engines := 0, 0, 0
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Name == "pass 0" {
			pass0++
		}
		if ev.Cat == "engine" {
			engines++
		}
	}
	if complete != len(spans) || pass0 != 1 || engines == 0 {
		t.Errorf("trace has %d complete events (want %d), %d pass 0, %d engine", complete, len(spans), pass0, engines)
	}
}

// TestTelemetrySpliceMatchesCold is the warm-versus-cold half of the
// telemetry contract: a store splice replays the stored run's effort
// record, so an analysis that splices every clean function must report
// the same snapshot — counters, histograms (the pass-count histogram
// included) and quality ledger — as one that runs every engine, at
// every worker count. Each run's snapshot must also agree with its own
// Stats, which sum the same per-function records.
func TestTelemetrySpliceMatchesCold(t *testing.T) {
	base := genprog.Source(genprog.Default())
	edited, ok := genprog.EditFunc(base, 5, 123)
	if !ok {
		t.Fatal("EditFunc failed on the default preset")
	}
	run := func(workers int, warm bool) *Result {
		cfg := DefaultConfig()
		cfg.Workers = workers
		if warm {
			cfg.FuncStore = newMemStore()
			if _, err := Analyze(compileSrc(t, "base.mini", base), cfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(compileSrc(t, "edited.mini", edited), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, workers := range []int{1, 8} {
		cold, warm := run(workers, false), run(workers, true)
		if warm.Stats.FuncsSpliced == 0 {
			t.Fatalf("Workers=%d: the warm run spliced nothing", workers)
		}
		for _, r := range []struct {
			label string
			res   *Result
		}{{"cold", cold}, {"warm", warm}} {
			tot, st := r.res.Telemetry.Totals, r.res.Stats
			if tot.Runs != st.FuncsAnalyzed || tot.DeriveHits != st.DerivedLoops ||
				tot.DeriveMiss != st.FailedDerives || tot.Degraded != st.FuncsDegraded ||
				tot.Skips != st.FuncsSkipped {
				t.Errorf("Workers=%d %s: snapshot totals (runs %d, derive %d/%d, degraded %d, skips %d) disagree with Stats (%d, %d/%d, %d, %d)",
					workers, r.label, tot.Runs, tot.DeriveHits, tot.DeriveMiss, tot.Degraded, tot.Skips,
					st.FuncsAnalyzed, st.DerivedLoops, st.FailedDerives, st.FuncsDegraded, st.FuncsSkipped)
			}
		}
		a, b := cold.Telemetry.Canon(), warm.Telemetry.Canon()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Workers=%d: warm snapshot differs from cold:\ncold: %swarm: %s\ncold %swarm %s",
				workers, a.Summary(), b.Summary(), a.Quality.Summary(), b.Quality.Summary())
		}
	}
}

// TestEffortAddSumsEveryCounter sets every Effort field, the embedded
// RunMetrics included, to 1 and adds it twice, so a counter the per-run
// record's field-sum misses shows up as 1 (peaks take the maximum and
// stay 1).
func TestEffortAddSumsEveryCounter(t *testing.T) {
	var one Effort
	setOnes(reflect.ValueOf(&one).Elem())
	var sum Effort
	sum.add(&one)
	sum.add(&one)
	var check func(prefix string, v reflect.Value)
	check = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name, fv := v.Type().Field(i).Name, v.Field(i)
			if fv.Kind() == reflect.Struct {
				check(name+".", fv)
				continue
			}
			want := int64(2)
			if strings.HasSuffix(name, "Peak") {
				want = 1
			}
			if fv.Int() != want {
				t.Errorf("%s%s = %d after two adds, want %d", prefix, name, fv.Int(), want)
			}
		}
	}
	check("", reflect.ValueOf(sum))
}

// setOnes sets every int64 field of v, embedded structs included, to 1.
func setOnes(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if fv := v.Field(i); fv.Kind() == reflect.Struct {
			setOnes(fv)
		} else {
			fv.SetInt(1)
		}
	}
}

// skipWidenSrc gives g six callers with six unrelated constant
// arguments, so merging them into g's parameter range needs set-cap
// widenings, while g's own body never widens. h's recursion keeps the
// driver iterating after g's inputs have settled, so later passes skip g.
const skipWidenSrc = `
func g(x) { return x; }
func c1() { return g(1); }
func c2() { return g(2); }
func c3() { return g(4); }
func c4() { return g(8); }
func c5() { return g(16); }
func c6() { return g(32); }
func h(n) {
	if (n > 0) { return h(n - 1) + 1; }
	return 0;
}
func main() {
	print(c1() + c2() + c3() + c4() + c5() + c6() + h(input()));
}
`

// TestSkipCountsInputWidens: a skipped run still computed its input
// snapshot, so its set-cap widenings count as its sub-operations do. g's
// widenings all come from merging its callers' arguments, so a run that
// skips g must report as many as one that re-runs it every pass.
func TestSkipCountsInputWidens(t *testing.T) {
	p := compile(t, skipWidenSrc)
	gMetrics := func(noSkip bool) telemetry.FuncMetrics {
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.noSkip = noSkip
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, fm := range res.Telemetry.Funcs {
			if fm.Func == "g" {
				return fm
			}
		}
		t.Fatal("no telemetry slot for g")
		return telemetry.FuncMetrics{}
	}
	skipping, full := gMetrics(false), gMetrics(true)
	if skipping.Skips == 0 || full.Skips != 0 {
		t.Fatalf("g skipped %d times with skipping and %d without; want >0 and 0", skipping.Skips, full.Skips)
	}
	if full.Widens == 0 {
		t.Fatal("g's input snapshot never widened; the test program no longer exercises set-cap merges")
	}
	if skipping.Widens != full.Widens {
		t.Errorf("g widens = %d with skipping, %d re-running every pass", skipping.Widens, full.Widens)
	}
}
