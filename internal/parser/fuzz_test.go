package parser

import (
	"errors"
	"testing"

	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/sem"
	"vrp/internal/source"
)

// FuzzParse runs the front end's checking half — lexer, parser and, on a
// clean parse, sem — over arbitrary input, as Compile does. It must never
// panic, and every diagnostic must point inside the file: a line that
// exists and a column at most one past that line's end. Seeds are every
// corpus program and a small program of each genprog preset's shape.
func FuzzParse(f *testing.F) {
	for _, cp := range corpus.All() {
		f.Add(cp.Source)
	}
	// Each genprog preset's shape at two functions: the full presets run
	// to tens of kilobytes, and the fuzzer spends its budget minimizing
	// inputs that large instead of exploring.
	for _, name := range genprog.PresetNames() {
		cfg, _ := genprog.Preset(name)
		cfg.Funcs = 2
		cfg.SCCWidth = min(cfg.SCCWidth, cfg.Funcs)
		f.Add(genprog.Source(cfg))
	}
	f.Add("")
	f.Add("func main() { /* unterminated")
	f.Add("func main() { var x = 99999999999999999999; x = x @ 1; }")
	f.Fuzz(func(t *testing.T, src string) {
		file := source.NewFile("fuzz.mini", src)
		prog, err := Parse(file.Name, src)
		if err == nil {
			err = sem.Check(prog)
		}
		if err == nil {
			return
		}
		var list *source.ErrorList
		if !errors.As(err, &list) {
			t.Fatalf("error %T is not a source.ErrorList: %v", err, err)
		}
		for _, e := range list.Errors() {
			p := e.Pos
			if p.Line < 1 || p.Line > file.NumLines() || p.Col < 1 || p.Col > len(file.Line(p.Line))+1 {
				t.Fatalf("diagnostic %q outside the file (%d lines)", e, file.NumLines())
			}
		}
	})
}
