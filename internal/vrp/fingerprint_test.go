package vrp

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite testdata/analysis_fingerprints.txt from the current analysis")

const analysisFingerprintFile = "testdata/analysis_fingerprints.txt"

// analysisFingerprint hashes everything an analysis reports: every branch
// prediction (function, block, probability bits, source), every
// function's values and edge-frequency bits, Stats but FuncsSpliced, the
// diagnostics, the quality digest and the range-set-size histogram.
func analysisFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	for _, br := range res.Branches() {
		fmt.Fprintf(h, "br %s b%d %x %s\n", br.Fn.Name, br.Instr.Block.ID, math.Float64bits(br.Prob), br.Source)
	}
	for _, f := range res.Prog.Funcs {
		fr := res.Funcs[f]
		if fr == nil {
			fmt.Fprintf(h, "func %s none\n", f.Name)
			continue
		}
		fmt.Fprintf(h, "func %s vals=%x degraded=%v freq", f.Name, vrange.HashValues(values(fr)), fr.Degraded)
		for _, x := range fr.EdgeFreq {
			fmt.Fprintf(h, " %x", math.Float64bits(x))
		}
		fmt.Fprintln(h)
	}
	s := res.Stats
	s.FuncsSpliced = 0
	fmt.Fprintf(h, "stats %+v\n", s)
	for _, d := range res.Diagnostics {
		fmt.Fprintf(h, "diag %+v\n", d)
	}
	writeJSON(t, h, res.Quality)
	if res.Telemetry != nil {
		writeJSON(t, h, res.Telemetry.RangeSetSize)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// TestAnalysisFingerprintsStable pins the analysis output of every corpus
// program and genprog preset (but 100k) to the committed fingerprints, at
// Workers: 1 with the Ball–Larus hooks and telemetry on: a refactor may
// change how the analysis computes its results, never what it reports. A
// second analysis spliced entirely from a store must hash the same. Run
// with -update-fingerprints to rewrite the file after an intended change
// of the analysis output.
func TestAnalysisFingerprintsStable(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, cp := range corpus.All() {
		progs = append(progs, program{"corpus/" + cp.Name, cp.Source})
	}
	for _, name := range genprog.PresetNames() {
		if name == "100k" {
			continue
		}
		cfg, _ := genprog.Preset(name)
		progs = append(progs, program{"genprog/" + name, genprog.Source(cfg)})
	}
	analyze := func(name, src string, st FuncStore) *Result {
		p := compileSrc(t, name, src)
		cfg := DefaultConfig()
		cfg.Workers = 1
		cfg.FuncStore = st
		cfg.Telemetry = telemetry.New()
		res, err := Analyze(p, withBallLarus(cfg, p, nil))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	var got strings.Builder
	for _, p := range progs {
		fp := analysisFingerprint(t, analyze(p.name, p.src, nil))
		fmt.Fprintf(&got, "%s %s\n", p.name, fp)

		st := newMemStore()
		analyze(p.name, p.src, st)
		warm := analyze(p.name, p.src, st)
		if s := warm.Stats; s.FuncsSpliced != s.FuncsAnalyzed-s.FuncsDegraded {
			t.Errorf("%s: warm run spliced %d of %d runs", p.name, s.FuncsSpliced, s.FuncsAnalyzed)
		}
		if wfp := analysisFingerprint(t, warm); wfp != fp {
			t.Errorf("%s: spliced analysis fingerprint %s, cold %s", p.name, wfp, fp)
		}
	}
	if *updateFingerprints {
		if err := os.WriteFile(analysisFingerprintFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analysisFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d fingerprints, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("analysis output changed: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}
