package ssaform_test

import (
	"bytes"
	"strings"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/ssaform"
	"vrp/internal/unitcache"
	corevrp "vrp/internal/vrp"
)

// compileWhole is the whole-program compile the cache must reproduce.
func compileWhole(t *testing.T, src string, opts ssaform.Options) *ir.Program {
	t.Helper()
	a, err := parser.Parse("t.mini", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Check(a); err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssaform.BuildWith(p, opts); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUnitCacheIRIdentity: a program compiled through a compile cache,
// whether its functions are compiled afresh or taken from the cache at
// other lines, has every function's IR fingerprint (positions read
// through ir.Func.Pos) and funcstore body encoding equal to a
// whole-program compile's. Each program
// of the IR stability gate is compiled through a cache warmed with
// another program, then with a comment line prepended (every function
// moves down a line and is taken from the cache), then with every
// function indented by a space (every start column moves, so every
// function is compiled again), and without π-assertions.
func TestUnitCacheIRIdentity(t *testing.T) {
	names, srcs := ssaform.FingerprintPrograms()
	for i, src := range srcs {
		c := unitcache.New()
		if c.Compile("t.mini", srcs[(i+1)%len(srcs)], false, nil, -1) == nil {
			t.Fatalf("%s: warm-up compile failed", names[(i+1)%len(srcs)])
		}
		indented := strings.ReplaceAll(src, "func ", " func ")
		variants := []struct {
			name, src    string
			noAssertions bool
			cached       bool // every function comes from the cache
		}{
			{"as is", src, false, false},
			{"moved down a line", "// an edit above\n" + src, false, true},
			{"indented", indented, false, false},
			{"indented, moved down two lines", "\n\n" + indented, false, true},
			{"without assertions", "\n\n" + indented, true, false},
		}
		for _, v := range variants {
			h0, m0 := c.Stats()
			got := c.Compile("t.mini", v.src, v.noAssertions, nil, -1)
			if got == nil {
				t.Fatalf("%s %s: cache compile failed", names[i], v.name)
			}
			h1, m1 := c.Stats()
			want := compileWhole(t, v.src, ssaform.Options{NoAssertions: v.noAssertions})
			if v.cached && (h1-h0 != int64(len(want.Funcs)) || m1 != m0) {
				t.Errorf("%s %s: %d hits, %d misses; want every function from the cache",
					names[i], v.name, h1-h0, m1-m0)
			}
			if len(got.Funcs) != len(want.Funcs) {
				t.Fatalf("%s %s: %d functions, want %d", names[i], v.name, len(got.Funcs), len(want.Funcs))
			}
			for k, f := range want.Funcs {
				g := got.Funcs[k]
				if g.Name != f.Name || got.ByName[f.Name] != g {
					t.Fatalf("%s %s: function %d is %s, want %s", names[i], v.name, k, g.Name, f.Name)
				}
				if ssaform.FuncFingerprint(g) != ssaform.FuncFingerprint(f) {
					t.Errorf("%s %s: %s differs from a whole-program compile", names[i], v.name, f.Name)
				}
				if !bytes.Equal(g.BodyEnc, corevrp.EncodeFuncBody(f, want)) {
					t.Errorf("%s %s: %s carries a body encoding that is not its own", names[i], v.name, f.Name)
				}
			}
		}
	}
}

// compileErr is compileWhole without the test failure: nil and the
// error when src does not compile.
func compileErr(src string) (*ir.Program, error) {
	a, err := parser.Parse("t.mini", src)
	if err == nil {
		err = sem.Check(a)
	}
	if err != nil {
		return nil, err
	}
	p, err := irgen.Build(a)
	if err == nil {
		err = ssaform.Build(p)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// FuzzUnitCache compiles arbitrary input through a compile cache, then
// the same input moved down a line (every function from the cache): the
// cache must compile exactly the sources a whole-program compile
// compiles, and each function's IR fingerprint and body encoding must
// equal the whole compile's.
func FuzzUnitCache(f *testing.F) {
	_, srcs := ssaform.FingerprintPrograms()
	for _, src := range srcs[:8] {
		f.Add(src)
	}
	f.Add("func h(a) { if (a < 3) { return 1; } return 2; } func main() { print(h(input())); }")
	f.Add("func main() { print(1); }\n/* between */ func g(a, b) { return a; }")
	f.Add("func main() { print(1); } }")
	f.Add("func main() { print(f(1)); } func f() { return 0; }")
	f.Add("func main(a, ) { }")
	f.Fuzz(func(t *testing.T, src string) {
		c := unitcache.New()
		for _, s := range []string{src, "\n" + src} {
			want, err := compileErr(s)
			got := c.Compile("t.mini", s, false, nil, -1)
			if (err == nil) != (got != nil) {
				t.Fatalf("whole compile error %v, cache compiled %v", err, got != nil)
			}
			if got == nil {
				return
			}
			if len(got.Funcs) != len(want.Funcs) {
				t.Fatalf("%d functions, want %d", len(got.Funcs), len(want.Funcs))
			}
			for k, wf := range want.Funcs {
				gf := got.Funcs[k]
				if gf.Name != wf.Name || ssaform.FuncFingerprint(gf) != ssaform.FuncFingerprint(wf) ||
					!bytes.Equal(gf.BodyEnc, corevrp.EncodeFuncBody(wf, want)) {
					t.Fatalf("function %d (%s) differs from a whole-program compile", k, wf.Name)
				}
			}
		}
	})
}
