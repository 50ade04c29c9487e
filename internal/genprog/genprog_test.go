package genprog_test

import (
	"strings"
	"testing"

	"vrp"
	"vrp/internal/genprog"
)

// TestDeterministic pins the absolute-determinism contract: the same
// Config yields byte-identical source, and different seeds diverge.
func TestDeterministic(t *testing.T) {
	a := genprog.Source(genprog.Default())
	b := genprog.Source(genprog.Default())
	if a != b {
		t.Fatal("same config produced different source")
	}
	other := genprog.Default()
	other.Seed++
	if genprog.Source(other) == a {
		t.Fatal("different seeds produced identical source")
	}
}

// TestDefaultSize pins the benchmark-tier floor: the default config must
// compile (parse, check, SSA) and land at or above 10k IR instructions.
func TestDefaultSize(t *testing.T) {
	p, err := vrp.Compile("gen.mini", genprog.Source(genprog.Default()))
	if err != nil {
		t.Fatalf("generated program does not compile: %v", err)
	}
	if n := p.IR.NumInstrs(); n < 10000 {
		t.Errorf("default config compiles to %d instructions, want >= 10000", n)
	}
}

// TestAnalyzable runs the full analysis over a smaller generated program
// so the generator cannot drift into shapes the engine rejects.
func TestAnalyzable(t *testing.T) {
	cfg := genprog.Default()
	cfg.Funcs = 8
	p, err := vrp.Compile("gen-small.mini", genprog.Source(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Analyze()
	if err != nil {
		t.Fatalf("analysis failed: %v", err)
	}
	for _, pr := range res.Predictions() {
		if pr.Prob < 0 || pr.Prob > 1 {
			t.Fatalf("branch probability %v out of [0,1]", pr.Prob)
		}
	}
}

// TestEditFunc pins the single-function-edit contract the incremental
// load tests rely on: the edit is deterministic, still compiles, touches
// exactly one kernel, and fails cleanly on a missing kernel.
func TestEditFunc(t *testing.T) {
	cfg := genprog.Config{Seed: 3, Funcs: 6, Diamonds: 2, LoopDepth: 2}
	base := genprog.Source(cfg)

	edited, ok := genprog.EditFunc(base, 2, 41)
	if !ok {
		t.Fatal("EditFunc(2) failed")
	}
	if again, _ := genprog.EditFunc(base, 2, 41); again != edited {
		t.Fatal("EditFunc is not deterministic")
	}
	if edited == base {
		t.Fatal("EditFunc changed nothing")
	}
	if _, err := vrp.Compile("edited.mini", edited); err != nil {
		t.Fatalf("edited program does not compile: %v", err)
	}

	// Exactly one inserted line, inside kernel 2's body.
	baseLines := strings.Split(base, "\n")
	editLines := strings.Split(edited, "\n")
	if len(editLines) != len(baseLines)+1 {
		t.Fatalf("edit added %d lines, want 1", len(editLines)-len(baseLines))
	}
	diff := -1
	for i := range baseLines {
		if editLines[i] != baseLines[i] {
			diff = i
			break
		}
	}
	if diff < 0 {
		t.Fatal("no differing line found")
	}
	if want := "\ty += 41;"; editLines[diff] != want {
		t.Fatalf("inserted line = %q, want %q", editLines[diff], want)
	}
	header := strings.LastIndex(strings.Join(editLines[:diff], "\n"), "func f")
	if header < 0 || !strings.Contains(edited[header:header+12], "func f2(") {
		t.Errorf("inserted line is not inside f2's body")
	}
	// Everything after the insertion is untouched.
	for i := diff; i < len(baseLines); i++ {
		if baseLines[i] != editLines[i+1] {
			t.Fatalf("line %d changed beyond the insertion", i)
		}
	}

	// Distinct deltas and kernels give distinct programs.
	other, _ := genprog.EditFunc(base, 2, 42)
	if other == edited {
		t.Error("different deltas produced identical edits")
	}
	otherK, _ := genprog.EditFunc(base, 3, 41)
	if otherK == edited {
		t.Error("different kernels produced identical edits")
	}

	if _, ok := genprog.EditFunc(base, cfg.Funcs, 1); ok {
		t.Error("EditFunc on a missing kernel reported success")
	}
	if _, ok := genprog.EditFunc("func main() { print(1); }", 0, 1); ok {
		t.Error("EditFunc on kernel-free source reported success")
	}
}

// TestPresetDeterminism extends the absolute-determinism contract to
// every shape preset and every new shape knob: same config ⇒
// byte-identical source, different seed ⇒ different source, and each
// preset must survive the full compile pipeline.
func TestPresetDeterminism(t *testing.T) {
	for _, name := range genprog.PresetNames() {
		if name == "100k" {
			continue // exercised by BenchmarkScaleNearLinear, not unit tests
		}
		t.Run(name, func(t *testing.T) {
			cfg, ok := genprog.Preset(name)
			if !ok {
				t.Fatalf("Preset(%q) unknown", name)
			}
			a := genprog.Source(cfg)
			if b := genprog.Source(cfg); b != a {
				t.Fatal("same preset config produced different source")
			}
			reseeded := cfg
			reseeded.Seed++
			if genprog.Source(reseeded) == a {
				t.Fatal("different seeds produced identical source")
			}
			if _, err := vrp.Compile(name+".mini", a); err != nil {
				t.Fatalf("preset does not compile: %v", err)
			}
		})
	}
}

// TestShapeKnobsIndependent pins each new shape knob individually:
// enabling exactly one of BodyStmts/SCCWidth/RecDepth must change the
// generated source (the knob is live) while leaving the zero-valued
// configuration byte-identical to the pre-knob generator output
// (TestDeterministic covers that via Default()).
func TestShapeKnobsIndependent(t *testing.T) {
	base := genprog.Config{Seed: 77, Funcs: 10, Diamonds: 2, LoopDepth: 2}
	baseSrc := genprog.Source(base)
	knobs := []struct {
		name string
		mut  func(*genprog.Config)
	}{
		{"BodyStmts", func(c *genprog.Config) { c.BodyStmts = 3 }},
		{"SCCWidth", func(c *genprog.Config) { c.SCCWidth = 3 }},
		{"RecDepth", func(c *genprog.Config) { c.RecDepth = 2 }},
	}
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			cfg := base
			k.mut(&cfg)
			src := genprog.Source(cfg)
			if src == baseSrc {
				t.Fatalf("%s had no effect on the generated source", k.name)
			}
			if again := genprog.Source(cfg); again != src {
				t.Fatalf("%s generation is not deterministic", k.name)
			}
			if _, err := vrp.Compile("knob.mini", src); err != nil {
				t.Fatalf("%s shape does not compile: %v", k.name, err)
			}
		})
	}
}

// TestEditFuncOnMegaShape pins single-function edits on a generated
// mega-program: the 10k scale preset (recursion rings, SCC links and
// body padding all enabled) must stay editable and recompilable, kernel
// by kernel, exactly like the plain benchmark shape.
func TestEditFuncOnMegaShape(t *testing.T) {
	cfg, ok := genprog.Preset("10k")
	if !ok {
		t.Fatal("no 10k preset")
	}
	base := genprog.Source(cfg)
	for _, k := range []int{0, 7, cfg.Funcs - 1} {
		edited, ok := genprog.EditFunc(base, k, int64(100+k))
		if !ok {
			t.Fatalf("EditFunc(%d) failed on the 10k preset", k)
		}
		if edited == base {
			t.Fatalf("EditFunc(%d) changed nothing", k)
		}
		if again, _ := genprog.EditFunc(base, k, int64(100+k)); again != edited {
			t.Fatalf("EditFunc(%d) is not deterministic", k)
		}
		if _, err := vrp.Compile("mega-edit.mini", edited); err != nil {
			t.Fatalf("edited 10k program does not compile: %v", err)
		}
	}
	if _, ok := genprog.EditFunc(base, cfg.Funcs, 1); ok {
		t.Error("EditFunc on a missing kernel reported success")
	}
}
