package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

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

// fillSlots simulates a two-pass run over three functions, the second
// and third concurrently analyzable, with the slot-write order of the
// middle function varying to mimic worker scheduling.
func fillSlots(swap bool) []FuncMetrics {
	funcs := []FuncMetrics{{Func: "main"}, {Func: "f"}, {Func: "g"}}
	order := []int{1, 2}
	if swap {
		order = []int{2, 1}
	}
	for pass := 0; pass < 2; pass++ {
		funcs[0].Runs++
		funcs[0].RunMetrics.Add(&RunMetrics{FlowPushes: 1, FlowPeak: 1, SSAPushes: 1, SSAPeak: 2, PhiMerges: 1})
		for _, fi := range order {
			if pass == 1 {
				funcs[fi].Skips++
				continue
			}
			funcs[fi].Runs++
			funcs[fi].RunMetrics.Add(&RunMetrics{FlowPushes: 1, FlowPeak: int64(fi), Widens: 1})
		}
	}
	return funcs
}

// TestSnapshotDeterministicOrder checks that the snapshot is identical
// (after Canon) no matter in which order concurrent tasks wrote their
// per-function slots.
func TestSnapshotDeterministicOrder(t *testing.T) {
	a := NewSnapshot(fillSlots(false)).Canon()
	b := NewSnapshot(fillSlots(true)).Canon()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%v\nvs\n%v", a, b)
	}
	if a.Totals.Runs != 4 || a.Totals.Skips != 2 {
		t.Errorf("totals = %d runs, %d skips; want 4 runs, 2 skips", a.Totals.Runs, a.Totals.Skips)
	}
}

// TestRunMetricsPeaks checks the record's sum: peak fields take the
// maximum, counters add — across runs of one function (Add) and across
// functions (the snapshot's Totals row).
func TestRunMetricsPeaks(t *testing.T) {
	m := RunMetrics{FlowPushes: 2, FlowPeak: 5}
	m.Add(&RunMetrics{FlowPushes: 1, FlowPeak: 3})
	if m.FlowPeak != 5 || m.FlowPushes != 3 {
		t.Errorf("Add: FlowPeak=%d FlowPushes=%d, want 5 and 3", m.FlowPeak, m.FlowPushes)
	}
	s := NewSnapshot([]FuncMetrics{
		{Func: "f", Runs: 2, RunMetrics: m},
		{Func: "g", Runs: 1, RunMetrics: RunMetrics{FlowPushes: 1, FlowPeak: 7}},
	})
	if s.Totals.FlowPeak != 7 || s.Totals.Runs != 3 || s.Totals.FlowPushes != 4 {
		t.Errorf("totals: peak=%d runs=%d pushes=%d, want 7, 3, 4", s.Totals.FlowPeak, s.Totals.Runs, s.Totals.FlowPushes)
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
		"InternHits", "InternMiss", "MemoHits", "MemoMisses",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("FuncMetrics JSON keys:\n got %v\nwant %v", keys, want)
	}
}

// TestAddSumsEveryCounter sets every RunMetrics field to 1 and adds it
// into a record twice, then sums two functions carrying that record
// (and every other FuncMetrics counter at 1) into the snapshot's Totals,
// so a counter missing from either field-sum shows up as 1 (peaks take
// the maximum and stay 1).
func TestAddSumsEveryCounter(t *testing.T) {
	var one RunMetrics
	setAll(reflect.ValueOf(&one).Elem())
	var rec RunMetrics
	rec.Add(&one)
	rec.Add(&one)
	checkAll(t, "", reflect.ValueOf(rec))

	f := FuncMetrics{Func: "f"}
	setAll(reflect.ValueOf(&f).Elem())
	checkAll(t, "", reflect.ValueOf(NewSnapshot([]FuncMetrics{f, f}).Totals))
}

// setAll sets every integer field of v, embedded structs included, to 1.
func setAll(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Struct:
			setAll(fv)
		case reflect.Int64:
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
		if fv.Kind() != reflect.Int64 {
			continue
		}
		want := int64(2)
		if strings.HasSuffix(name, "Peak") {
			want = 1
		}
		if got := fv.Int(); got != want {
			t.Errorf("%s%s = %d after two adds, want %d", prefix, name, got, want)
		}
	}
}
