package ssaform

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/ir"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite testdata/ir_fingerprints.txt from the current compiler")

const fingerprintFile = "testdata/ir_fingerprints.txt"

// fingerprint hashes everything of a compiled program that an analysis,
// a prediction, a funcstore key or a response body can observe: the
// printed IR, each instruction's Idx, π-parent and source position, each
// block's predecessor and successor edge order, each edge's ID and kind,
// the register names and the def-use lists.
func fingerprint(p *ir.Program) string {
	h := sha256.New()
	fmt.Fprint(h, p.String())
	for _, f := range p.Funcs {
		fingerprintFunc(h, f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func fingerprintFunc(h hash.Hash, f *ir.Func) {
	fmt.Fprintf(h, "func %s regs=%d params=%v entry=b%d\n", f.Name, f.NumRegs, f.Params, f.Entry.ID)
	for _, b := range f.Blocks {
		fmt.Fprintf(h, "b%d preds", b.ID)
		for _, e := range b.Preds {
			fmt.Fprintf(h, " e%d", e.ID)
		}
		fmt.Fprint(h, " succs")
		for _, e := range b.Succs {
			fmt.Fprintf(h, " e%d", e.ID)
		}
		fmt.Fprintln(h)
		for _, in := range b.Instrs {
			fmt.Fprintf(h, "%d b%d parent=r%d pos=%s %s\n", in.Idx, in.Block.ID, in.Parent, in.Pos, in)
		}
	}
	for _, e := range f.Edges {
		fmt.Fprintf(h, "e%d b%d->b%d %s\n", e.ID, e.From.ID, e.To.ID, e.Kind)
	}
	regs := make([]ir.Reg, 0, len(f.Names))
	for r := range f.Names {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for _, r := range regs {
		fmt.Fprintf(h, "name r%d %s\n", r, f.Names[r])
	}
	for r, uses := range f.Uses {
		def := -1
		if d := f.Defs[r]; d != nil {
			def = d.Idx
		}
		fmt.Fprintf(h, "r%d def=%d uses", r, def)
		for _, u := range uses {
			fmt.Fprintf(h, " %d", u.Idx)
		}
		fmt.Fprintln(h)
	}
}

// fingerprintPrograms lists every program the IR stability gate covers:
// the corpus and every genprog preset except the 100k scale tier.
func fingerprintPrograms() []struct{ name, src string } {
	var out []struct{ name, src string }
	for _, cp := range corpus.All() {
		out = append(out, struct{ name, src string }{"corpus/" + cp.Name, cp.Source})
	}
	for _, name := range genprog.PresetNames() {
		if name == "100k" {
			continue
		}
		cfg, _ := genprog.Preset(name)
		out = append(out, struct{ name, src string }{"genprog/" + name, genprog.Source(cfg)})
	}
	return out
}

// TestIRFingerprintsStable pins the compiled IR of every corpus program
// and genprog preset (but 100k) to the committed fingerprints: the front
// end may change how it builds the IR, never what it builds. Run with
// -update-fingerprints to rewrite the file after an intended IR change.
func TestIRFingerprintsStable(t *testing.T) {
	var got strings.Builder
	for _, p := range fingerprintPrograms() {
		fmt.Fprintf(&got, "%s %s\n", p.name, fingerprint(buildSSAWith(t, p.src, Options{})))
	}
	if *updateFingerprints {
		if err := os.WriteFile(fingerprintFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintFile)
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
			t.Errorf("IR changed: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}
