// Package source provides source positions and diagnostic reporting for the
// Mini language front end.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a position within a source file. Line and Col are 1-based; a zero
// Pos is "no position".
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p refers to an actual source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Before reports whether p appears strictly before q in the file.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

// File associates a name with source text and can translate byte offsets to
// positions.
type File struct {
	Name string
	Src  string

	lineStarts []int // byte offset of each line start
}

// NewFile records the line structure of src for position translation.
func NewFile(name, src string) *File {
	f := &File{Name: name, Src: src, lineStarts: make([]int, 1, strings.Count(src, "\n")+1)}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			f.lineStarts = append(f.lineStarts, i+1)
		}
	}
	return f
}

// PosFor returns the line/column position of the byte offset.
func (f *File) PosFor(offset int) Pos {
	if offset < 0 {
		return Pos{}
	}
	if offset > len(f.Src) {
		offset = len(f.Src)
	}
	// Find the last line start <= offset.
	i := sort.Search(len(f.lineStarts), func(i int) bool { return f.lineStarts[i] > offset }) - 1
	return Pos{Line: i + 1, Col: offset - f.lineStarts[i] + 1}
}

// Line returns the text of the 1-based line number, without the newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lineStarts) {
		return ""
	}
	start := f.lineStarts[n-1]
	end := len(f.Src)
	if n < len(f.lineStarts) {
		end = f.lineStarts[n] - 1
	}
	return f.Src[start:end]
}

// NumLines returns the number of lines in the file.
func (f *File) NumLines() int { return len(f.lineStarts) }

// Error is a single diagnostic tied to a position.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string {
	if e.File == "" {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return fmt.Sprintf("%s:%s: %s", e.File, e.Pos, e.Msg)
}

// ErrorList collects diagnostics in source order.
type ErrorList struct {
	errs []*Error
}

// Add appends a diagnostic.
func (l *ErrorList) Add(file string, pos Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{File: file, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Len returns the number of collected diagnostics.
func (l *ErrorList) Len() int { return len(l.errs) }

// Errors returns the collected diagnostics.
func (l *ErrorList) Errors() []*Error { return l.errs }

// Sort orders diagnostics by position.
func (l *ErrorList) Sort() {
	sort.SliceStable(l.errs, func(i, j int) bool {
		if l.errs[i].File != l.errs[j].File {
			return l.errs[i].File < l.errs[j].File
		}
		return l.errs[i].Pos.Before(l.errs[j].Pos)
	})
}

// Err returns nil if the list is empty, otherwise the list itself.
func (l *ErrorList) Err() error {
	if len(l.errs) == 0 {
		return nil
	}
	return l
}

func (l *ErrorList) Error() string {
	switch len(l.errs) {
	case 0:
		return "no errors"
	case 1:
		return l.errs[0].Error()
	}
	var b strings.Builder
	for i, e := range l.errs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(e.Error())
	}
	return b.String()
}
