package source

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPosFor(t *testing.T) {
	f := NewFile("t", "ab\ncd\n\nxyz")
	cases := []struct {
		off  int
		line int
		col  int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // 'a', 'b', '\n'
		{3, 2, 1}, {4, 2, 2},
		{6, 3, 1},
		{7, 4, 1}, {9, 4, 3},
	}
	for _, c := range cases {
		got := f.PosFor(c.off)
		if got.Line != c.line || got.Col != c.col {
			t.Errorf("PosFor(%d) = %v, want %d:%d", c.off, got, c.line, c.col)
		}
	}
}

func TestPosForClamping(t *testing.T) {
	f := NewFile("t", "ab")
	if p := f.PosFor(-1); p.IsValid() {
		t.Errorf("negative offset should give invalid pos, got %v", p)
	}
	if p := f.PosFor(100); p.Line != 1 || p.Col != 3 {
		t.Errorf("overflow offset should clamp to end, got %v", p)
	}
}

func TestLine(t *testing.T) {
	f := NewFile("t", "first\nsecond\nthird")
	if got := f.Line(2); got != "second" {
		t.Errorf("Line(2) = %q", got)
	}
	if got := f.Line(3); got != "third" {
		t.Errorf("Line(3) = %q", got)
	}
	if got := f.Line(0); got != "" {
		t.Errorf("Line(0) = %q, want empty", got)
	}
	if got := f.Line(99); got != "" {
		t.Errorf("Line(99) = %q, want empty", got)
	}
	if f.NumLines() != 3 {
		t.Errorf("NumLines = %d, want 3", f.NumLines())
	}
}

func TestPosOrdering(t *testing.T) {
	a := Pos{Line: 1, Col: 5}
	b := Pos{Line: 2, Col: 1}
	c := Pos{Line: 2, Col: 3}
	if !a.Before(b) || !b.Before(c) || c.Before(a) {
		t.Error("Before ordering wrong")
	}
	if a.Before(a) {
		t.Error("Before must be irreflexive")
	}
}

func TestPosString(t *testing.T) {
	if s := (Pos{}).String(); s != "-" {
		t.Errorf("zero pos String = %q", s)
	}
	if s := (Pos{Line: 3, Col: 7}).String(); s != "3:7" {
		t.Errorf("String = %q", s)
	}
}

func TestErrorList(t *testing.T) {
	var l ErrorList
	if l.Err() != nil {
		t.Error("empty list should have nil Err")
	}
	l.Add("f.mini", Pos{Line: 5, Col: 1}, "second %s", "error")
	l.Add("f.mini", Pos{Line: 1, Col: 2}, "first error")
	l.Sort()
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Errors()[0].Pos.Line != 1 {
		t.Error("Sort did not order by position")
	}
	msg := l.Err().Error()
	if !strings.Contains(msg, "first error") || !strings.Contains(msg, "second error") {
		t.Errorf("Error() = %q", msg)
	}
	if !strings.Contains(msg, "f.mini:1:2") {
		t.Errorf("Error() missing file:pos prefix: %q", msg)
	}
}

func TestErrorSingle(t *testing.T) {
	e := &Error{Pos: Pos{Line: 2, Col: 3}, Msg: "oops"}
	if e.Error() != "2:3: oops" {
		t.Errorf("Error() = %q", e.Error())
	}
}

// Property: PosFor round-trips through the line table — the byte at any
// offset lies on the reported line at the reported column.
func TestPosForConsistency(t *testing.T) {
	check := func(raw []byte) bool {
		src := string(raw)
		f := NewFile("t", src)
		lineStart := 0
		line := 1
		for off := 0; off < len(src); off++ {
			p := f.PosFor(off)
			if p.Line != line || p.Col != off-lineStart+1 {
				return false
			}
			if src[off] == '\n' {
				line++
				lineStart = off + 1
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNewFileAt: a file that starts at a column counts that column on
// its first line only.
func TestNewFileAt(t *testing.T) {
	f := NewFileAt("t.mini", "func f() {\n}", 7)
	if got, want := f.PosFor(5), (Pos{Line: 1, Col: 12}); got != want {
		t.Errorf("PosFor(5) = %v, want %v", got, want)
	}
	if got, want := f.PosFor(11), (Pos{Line: 2, Col: 1}); got != want {
		t.Errorf("PosFor(11) = %v, want %v", got, want)
	}
}
