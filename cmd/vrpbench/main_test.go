package main

import (
	"io"
	"strings"
	"testing"
)

// TestParseArgs pins mode selection: exactly one mode per run, and no
// setting that the selected mode would silently ignore.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args    string
		mode    string
		wantErr string // substring of the usage error; "" = accepted
	}{
		{args: "", mode: ""},
		{args: "-fig 5", mode: "fig"},
		{args: "-fig 0", mode: ""},
		{args: "-summary=false -fig 7", mode: "fig"},
		{args: "-summary", mode: "summary"},
		{args: "-quality -gate -maxevals 1 -qualitybase b.json -qualityout q.json", mode: "quality"},
		{args: "-quality -summary", wantErr: "-summary and -quality select different modes"},
		{args: "-fig 5 -apps", wantErr: "-fig and -apps select different modes"},
		{args: "-ablations -quality -gate", wantErr: "-ablations and -quality select different modes"},
		{args: "-gate -fig 5", wantErr: "-gate needs -quality"},
		{args: "-gate", wantErr: "-gate needs -quality"},
		{args: "-summary -maxevals 1", wantErr: "-maxevals needs -quality"},
		{args: "-qualitybase b.json", wantErr: "-qualitybase needs -quality -gate"},
		{args: "-quality -qualitybase b.json", wantErr: "-qualitybase needs -quality -gate"},
		{args: "-summary -qualityout q.json", wantErr: "-qualityout needs -quality"},
		{args: "-fig 9", wantErr: "unknown figure 9"},
		{args: "-fig 5 extra", wantErr: `unexpected argument "extra"`},
		{args: "-bench", wantErr: "flag provided but not defined: -bench"},
		{args: "-lattice", wantErr: "flag provided but not defined: -lattice"},
		{args: "-scale", wantErr: "flag provided but not defined: -scale"},
		{args: "-quality -scaleout s.json", wantErr: "flag provided but not defined: -scaleout"},
		{args: "-quality -scalemax 100k", wantErr: "flag provided but not defined: -scalemax"},
	} {
		var out strings.Builder
		o, err := parseArgs(strings.Fields(tc.args), &out)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%q: unexpected error %v", tc.args, err)
			} else if o.mode != tc.mode {
				t.Errorf("%q: mode %q, want %q", tc.args, o.mode, tc.mode)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			continue
		}
		if msg := out.String(); !strings.Contains(msg, tc.wantErr) || !strings.Contains(msg, "Usage of vrpbench") {
			t.Errorf("%q: printed %q, want the error followed by the usage text", tc.args, msg)
		}
	}
}

// TestParseArgsSettings checks that the selected mode's settings arrive
// in options, with defaults where a flag is not given.
func TestParseArgsSettings(t *testing.T) {
	o, err := parseArgs(strings.Fields("-quality -gate -maxevals 3 -qualitybase b.json"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{mode: "quality", gate: true, qualityOut: "BENCH_quality.json",
		qualityBase: "b.json", maxEvals: 3}
	if o != want {
		t.Errorf("options = %+v, want %+v", o, want)
	}
}
