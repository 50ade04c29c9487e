package unitcache

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/lexer"
	"vrp/internal/source"
)

// warm returns a cache holding the units of srcs, each of which must
// compile.
func warm(t *testing.T, srcs ...string) *Cache {
	t.Helper()
	c := New()
	for _, src := range srcs {
		if c.Compile("warm.mini", src, false, nil, -1) == nil {
			t.Fatalf("warming program does not compile:\n%s", src)
		}
	}
	return c
}

// checkSplit fails t unless c's cache-assisted split of src equals
// lexer.Units, and returns how many units it took from the cache.
func checkSplit(t *testing.T, what string, c *Cache, src string) (taken int) {
	t.Helper()
	file := source.NewFile("t.mini", src)
	want, wantOK := lexer.Units(file)
	got, cached, pos, ok := c.split(file)
	if ok != wantOK || !slices.Equal(got, want) {
		t.Fatalf("%s: split = %v, %v; lexer.Units = %v, %v", what, got, ok, want, wantOK)
	}
	for i, u := range cached {
		if u == nil {
			continue
		}
		taken++
		if p := file.PosFor(got[i].Start); pos[i] != p || u.col != p.Col || u.text != src[got[i].Start:got[i].End] {
			t.Errorf("%s: unit %s taken from the cache at %v, its text or column differs", what, got[i].Name, pos[i])
		}
	}
	return taken
}

// TestSplitMatchesUnits: a compile cache splits a program into units by
// lexing only the units it does not hold byte for byte at the same
// column, and the split (units and ok) equals a whole-source
// lexer.Units wherever units come from: the corpus, every single-kernel
// edit of the genprog default program, sources Units refuses, and a
// source that moves a cached unit to another column.
func TestSplitMatchesUnits(t *testing.T) {
	for _, cp := range corpus.All() {
		// Warmed by the program moved down a line: every unit is taken.
		c := warm(t, "// an edit above\n"+cp.Source)
		units, _ := lexer.Units(source.NewFile("t.mini", cp.Source))
		if n := checkSplit(t, cp.Name, c, cp.Source); n != len(units) {
			t.Errorf("%s: %d of %d units taken from the cache", cp.Name, n, len(units))
		}
	}

	cfg := genprog.Default()
	base := genprog.Source(cfg)
	baseUnits, _ := lexer.Units(source.NewFile("t.mini", base))
	c := warm(t, base)
	for k := 0; ; k++ {
		edited, ok := genprog.EditFunc(base, k, int64(k+1))
		if !ok {
			if k != cfg.Funcs {
				t.Fatalf("EditFunc stops at kernel %d of %d", k, cfg.Funcs)
			}
			break
		}
		// Every unit but the edited kernel is taken.
		if n := checkSplit(t, fmt.Sprintf("edit of f%d", k), c, edited); n != len(baseUnits)-1 {
			t.Errorf("edit of kernel %d: %d of %d units taken from the cache", k, n, len(baseUnits))
		}
	}

	// The same units one column to the right: none is taken, and the
	// split still matches.
	moved := strings.ReplaceAll(base, "\nfunc ", "\n func ")
	if n := checkSplit(t, "moved columns", c, moved); n != 1 {
		t.Errorf("moved columns: %d units taken from the cache, want only the first", n)
	}

	// The sources lexer's TestUnits refuses, against a cache holding the
	// units they start with.
	c = warm(t, "func main() { }\nfunc f() { }\nfunc g(a, b) { }\n")
	for _, bad := range []string{
		"func main() { } }",
		"func main() { { }",
		"var x; func main() { }",
		"func main { }",
		"func main(a b) { }",
		"func main() { x = 1 @ 2; }",
		"func main() { } /* open",
		"func main() ; { }",
		"func (a) { }",
		"func main(a, , b) { }",
		"func main() { }\nfunc f() {",
	} {
		checkSplit(t, bad, c, bad)
	}
}
