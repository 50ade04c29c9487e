package dom

import (
	"testing"

	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/parser"
	"vrp/internal/sem"
)

func buildMain(t *testing.T, src string) *ir.Func {
	t.Helper()
	p, err := parser.Parse("t.mini", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sem.Check(p); err != nil {
		t.Fatal(err)
	}
	prog, err := irgen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Main()
}

const diamondSrc = `
func main() {
	var x = input();
	if (x > 0) { print(1); } else { print(2); }
	print(3);
}`

func TestDominatorsDiamond(t *testing.T) {
	f := buildMain(t, diamondSrc)
	tr := New(f)
	// Entry dominates everything; the join is dominated by the entry, not
	// by either arm.
	entry := f.Entry.ID
	if tr.Idom(entry) != -1 {
		t.Error("entry must have no idom")
	}
	join := -1
	for _, b := range f.Blocks {
		if len(b.Preds) == 2 {
			join = b.ID
		}
	}
	if join < 0 {
		t.Fatal("no join block found")
	}
	if tr.Idom(join) != entry {
		t.Errorf("idom(join) = %d, want entry %d", tr.Idom(join), entry)
	}
	for _, b := range f.Blocks {
		if !tr.Dominates(entry, b.ID) {
			t.Errorf("entry must dominate b%d", b.ID)
		}
	}
	arms := 0
	for _, b := range f.Blocks {
		if b.ID != entry && b.ID != join && len(b.Preds) == 1 && b.Preds[0].From.ID == entry {
			arms++
			if tr.Dominates(b.ID, join) {
				t.Errorf("arm b%d must not dominate the join", b.ID)
			}
			// The join must be in the arm's dominance frontier.
			inDF := false
			for _, d := range tr.Frontier(b.ID) {
				if d == join {
					inDF = true
				}
			}
			if !inDF {
				t.Errorf("join missing from DF(b%d)", b.ID)
			}
		}
	}
	if arms != 2 {
		t.Errorf("found %d arms", arms)
	}
}

func TestDominatesReflexive(t *testing.T) {
	f := buildMain(t, diamondSrc)
	tr := New(f)
	for _, b := range f.Blocks {
		if !tr.Dominates(b.ID, b.ID) {
			t.Errorf("Dominates must be reflexive (b%d)", b.ID)
		}
	}
}

const loopSrc = `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i++) {
		if (i > 5) { s += 2; } else { s += 1; }
	}
	print(s);
}`

func TestLoopDetection(t *testing.T) {
	f := buildMain(t, loopSrc)
	tr := New(f)
	li := FindLoops(f, tr)
	if len(li.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(li.Loops))
	}
	l := li.Loops[0]
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
	if len(l.BackEdge) != 1 {
		t.Errorf("back edges = %d", len(l.BackEdge))
	}
	be := l.BackEdge[0]
	if be.To != l.Header {
		t.Error("back edge does not target the header")
	}
	if !l.Contains(be.From.ID) {
		t.Error("latch not in loop body")
	}
	exits := 0
	for _, b := range f.Blocks {
		if !l.Contains(b.ID) {
			continue
		}
		for _, e := range b.Succs {
			if !l.Contains(e.To.ID) {
				exits++
			}
		}
	}
	if exits == 0 {
		t.Error("loop has no exit edges")
	}
	if l.size != count(f, l) {
		t.Errorf("size = %d, want %d member blocks", l.size, count(f, l))
	}
}

// count returns the number of f's blocks the loop contains.
func count(f *ir.Func, l *Loop) int {
	n := 0
	for _, b := range f.Blocks {
		if l.Contains(b.ID) {
			n++
		}
	}
	return n
}

const nestedLoopSrc = `
func main() {
	var s = 0;
	for (var i = 0; i < 4; i++) {
		for (var j = 0; j < 4; j++) {
			s += j;
		}
	}
	print(s);
}`

func TestNestedLoops(t *testing.T) {
	f := buildMain(t, nestedLoopSrc)
	tr := New(f)
	li := FindLoops(f, tr)
	if len(li.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(li.Loops))
	}
	var inner, outer *Loop
	for _, l := range li.Loops {
		if l.Depth == 2 {
			inner = l
		} else if l.Depth == 1 {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("bad nest depths")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if !outer.Contains(inner.Header.ID) {
		t.Error("outer loop does not contain the inner header")
	}
	if inner.size >= outer.size {
		t.Errorf("inner loop has %d blocks, outer %d", inner.size, outer.size)
	}
	// Innermost query from an inner-body block.
	for _, b := range f.Blocks {
		if inner.Contains(b.ID) && li.InnermostLoop(b.ID) != inner {
			t.Errorf("InnermostLoop(b%d) is not the inner loop", b.ID)
		}
	}
	if li.Depth(f.Entry.ID) != 0 {
		t.Error("entry must have depth 0")
	}
}

func TestBackEdges(t *testing.T) {
	f := buildMain(t, nestedLoopSrc)
	tr := New(f)
	be := BackEdges(f, tr)
	if len(be) != len(f.Edges) {
		t.Fatalf("BackEdges has %d entries, want one per edge (%d)", len(be), len(f.Edges))
	}
	n := 0
	for _, e := range f.Edges {
		if be[e.ID] != tr.Dominates(e.To.ID, e.From.ID) {
			t.Errorf("edge %s: back = %v, want target-dominates-source", e, be[e.ID])
		}
		if be[e.ID] {
			n++
		}
	}
	if n != 2 {
		t.Errorf("back edges = %d, want 2", n)
	}
}

func TestPostDominators(t *testing.T) {
	f := buildMain(t, diamondSrc)
	pt := NewPost(f)
	join := -1
	for _, b := range f.Blocks {
		if len(b.Preds) == 2 {
			join = b.ID
		}
	}
	entry := f.Entry.ID
	if !pt.PostDominates(join, entry) {
		t.Error("join must postdominate the entry")
	}
	for _, b := range f.Blocks {
		if b.ID == entry || b.ID == join {
			continue
		}
		if len(b.Preds) == 1 && b.Preds[0].From.ID == entry && len(b.Succs) == 1 {
			if pt.PostDominates(b.ID, entry) {
				t.Errorf("arm b%d must not postdominate the entry", b.ID)
			}
		}
	}
	if !pt.PostDominates(join, join) {
		t.Error("PostDominates must be reflexive")
	}
}

// Property over the whole construction: the idom of every non-entry block
// strictly dominates it and appears earlier in reverse postorder.
func TestIdomInvariants(t *testing.T) {
	srcs := []string{diamondSrc, loopSrc, nestedLoopSrc, `
func main() {
	var x = input();
	while (x > 0) {
		if (x % 3 == 0) { x -= 2; continue; }
		if (x % 5 == 0) { break; }
		x--;
	}
	print(x);
}`}
	for _, src := range srcs {
		f := buildMain(t, src)
		tr := New(f)
		for _, b := range f.Blocks {
			if b == f.Entry {
				continue
			}
			id := tr.Idom(b.ID)
			if id < 0 {
				t.Errorf("b%d has no idom", b.ID)
				continue
			}
			if id >= b.ID {
				t.Errorf("idom(b%d) = b%d not earlier in RPO", b.ID, id)
			}
			if !tr.Dominates(id, b.ID) {
				t.Errorf("idom(b%d) = b%d does not dominate it", b.ID, id)
			}
			// Every predecessor must be dominated by... no: every pred's
			// dominators must include idom ∩; check instead: idom
			// dominates every pred that is reachable.
			for _, pe := range b.Preds {
				if !tr.Dominates(id, pe.From.ID) && !tr.Dominates(b.ID, pe.From.ID) {
					t.Errorf("idom(b%d)=b%d fails to dominate pred b%d", b.ID, id, pe.From.ID)
				}
			}
		}
	}
}
