package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestDisabledRunMetricsZeroAlloc pins the zero-cost contract of the
// disabled path: every recording method the engine calls on its hot path
// must be a no-op on a nil receiver and must not allocate.
func TestDisabledRunMetricsZeroAlloc(t *testing.T) {
	var m *RunMetrics // telemetry disabled
	allocs := testing.AllocsPerRun(1000, func() {
		m.PushFlow(3)
		m.PushSSA(7)
		m.PhiMerge()
		m.Widen()
		m.AddWidens(5)
		m.Assert()
		m.PhiHull()
		m.AssertTighten()
	})
	if allocs != 0 {
		t.Fatalf("disabled-path telemetry allocated %.1f per run, want 0", allocs)
	}
}

func TestHistogramClamp(t *testing.T) {
	h := NewHistogram("h", "0", "1", "2+")
	h.Add(-5)
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(99)
	if got := h.Counts[0]; got != 2 {
		t.Errorf("bucket 0 = %d, want 2 (negative clamps down)", got)
	}
	if got := h.Counts[2]; got != 2 {
		t.Errorf("bucket 2+ = %d, want 2 (overflow clamps up)", got)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
}

// fillRecorder simulates a two-pass run over three functions, the second
// and third concurrently analyzable, with the slot-write order of the
// middle function varying to mimic worker scheduling.
func fillRecorder(swap bool) *Recorder {
	r := New()
	r.Begin([]string{"main", "f", "g"})
	order := []int{1, 2}
	if swap {
		order = []int{2, 1}
	}
	for pass := 0; pass < 2; pass++ {
		m := &RunMetrics{}
		m.PushFlow(1)
		m.PushSSA(2)
		m.PhiMerge()
		r.EndRun(0, m, "ok")
		for _, fi := range order {
			if pass == 1 {
				r.Skip(fi)
				continue
			}
			m := &RunMetrics{}
			m.PushFlow(fi)
			m.Widen()
			r.EndRun(fi, m, "ok")
		}
	}
	return r
}

// TestSnapshotDeterministicOrder checks that the snapshot is identical
// (after Canon) no matter in which order concurrent tasks wrote their
// per-function slots.
func TestSnapshotDeterministicOrder(t *testing.T) {
	a := fillRecorder(false).Snapshot().Canon()
	b := fillRecorder(true).Snapshot().Canon()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%v\nvs\n%v", a, b)
	}
	if a.Totals.Runs != 4 || a.Totals.Skips != 2 {
		t.Errorf("totals = %d runs, %d skips; want 4 runs, 2 skips", a.Totals.Runs, a.Totals.Skips)
	}
}

func TestRunMetricsPeaks(t *testing.T) {
	m := &RunMetrics{}
	m.PushFlow(2)
	m.PushFlow(5)
	m.PushFlow(1)
	if m.FlowPeak != 5 || m.FlowPushes != 3 {
		t.Errorf("FlowPeak=%d FlowPushes=%d, want 5 and 3", m.FlowPeak, m.FlowPushes)
	}
	var fm FuncMetrics
	fm.fold(m)
	m2 := &RunMetrics{}
	m2.PushFlow(3)
	fm.fold(m2)
	if fm.FlowPeak != 5 || fm.Runs != 2 || fm.FlowPushes != 4 {
		t.Errorf("fold: peak=%d runs=%d pushes=%d, want 5, 2, 4", fm.FlowPeak, fm.Runs, fm.FlowPushes)
	}
}

// TestFuncMetricsJSONKeys pins the key order of a function's counters in
// the ?telemetry=1 response: encoding/json flattens the embedded
// RunMetrics and LatticeCounters in declaration order.
func TestFuncMetricsJSONKeys(t *testing.T) {
	data, err := json.Marshal(FuncMetrics{})
	if err != nil {
		t.Fatal(err)
	}
	// Every value is a scalar, so after the opening brace the tokens
	// alternate key, value.
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Token(); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
	}
	want := []string{
		"Func", "Runs", "Skips", "Degraded",
		"Steps", "FlowPushes", "SSAPushes", "FlowPeak", "SSAPeak", "PhiMerges",
		"Widens", "DeriveHits", "DeriveMiss", "Asserts", "PhiHulls", "AssertTightens",
		"InternHits", "InternMiss", "MemoHits", "MemoMisses", "ConfirmSkips",
		"MergeMemoHits", "MergeMemoMiss",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("FuncMetrics JSON keys:\n got %v\nwant %v", keys, want)
	}
}

// TestAddSumsEveryCounter sets every RunMetrics field to 1 and folds it
// twice, so a counter missing from the shared field-sum shows up as 1
// (peaks take the maximum and stay 1).
func TestAddSumsEveryCounter(t *testing.T) {
	var one RunMetrics
	setAll(reflect.ValueOf(&one).Elem())
	var f FuncMetrics
	f.fold(&one)
	f.fold(&one)
	var tot FuncMetrics
	tot.addTotals(&f)
	checkAll(t, "", reflect.ValueOf(tot.RunMetrics))
	if tot.Runs != 2 {
		t.Errorf("Runs = %d, want 2", tot.Runs)
	}
}

func setAll(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if fv := v.Field(i); fv.Kind() == reflect.Struct {
			setAll(fv)
		} else {
			fv.SetInt(1)
		}
	}
}

func checkAll(t *testing.T, prefix string, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		fv := v.Field(i)
		if fv.Kind() == reflect.Struct {
			checkAll(t, name+".", fv)
			continue
		}
		want := int64(2)
		if strings.HasSuffix(name, "Peak") {
			want = 1
		}
		if got := fv.Int(); got != want {
			t.Errorf("%s%s = %d after two folds, want %d", prefix, name, got, want)
		}
	}
}
