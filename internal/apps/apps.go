// Package apps implements the applications of value range propagation the
// paper describes in §6:
//
//   - subsumption of constant propagation and copy propagation: a final
//     range {1[c:c:0]} proves the variable constant; {1[y:y:0]} proves it
//     a copy of y;
//   - unreachable code detection: edges and blocks with probability 0;
//   - elimination of array bounds checks proven redundant by index ranges;
//   - alias disjointness for array accesses whose index ranges cannot
//     overlap;
//   - profile-guided code layout driven by the predicted branch
//     probabilities and frequencies (Pettis–Hansen-style chain building).
package apps

import (
	"sort"

	"vrp/internal/ir"
	"vrp/internal/vrange"
	corevrp "vrp/internal/vrp"
)

// ---------------------------------------------------- constants & copies

// ConstCopyReport lists what VRP's final ranges prove, per function.
type ConstCopyReport struct {
	Constants map[*ir.Func]map[ir.Reg]int64  // register → proven constant
	Copies    map[*ir.Func]map[ir.Reg]ir.Reg // register → the value it copies
}

// FindConstantsAndCopies reads constants and copies off the final ranges
// (§6: "value range propagation subsumes both constant propagation and
// copy propagation").
func FindConstantsAndCopies(res *corevrp.Result) *ConstCopyReport {
	rep := &ConstCopyReport{
		Constants: map[*ir.Func]map[ir.Reg]int64{},
		Copies:    map[*ir.Func]map[ir.Reg]ir.Reg{},
	}
	for f, fr := range res.Funcs {
		consts := map[ir.Reg]int64{}
		copies := map[ir.Reg]ir.Reg{}
		for r := ir.Reg(1); int(r) < f.NumRegs; r++ {
			def := f.Defs[r]
			if def == nil {
				continue
			}
			v := fr.Value(r)
			if c, ok := v.AsConst(); ok && def.Op != ir.OpConst {
				consts[r] = c
			}
			if src, ok := v.AsCopyOf(); ok && src != r {
				copies[r] = src
			}
		}
		rep.Constants[f] = consts
		rep.Copies[f] = copies
	}
	return rep
}

// ------------------------------------------------------ unreachable code

// UnreachableBlocks returns, per function, the IDs of blocks the analysis
// proves can never execute ("branches to unreachable code have a
// probability of 0", §6).
func UnreachableBlocks(res *corevrp.Result) map[*ir.Func][]int {
	out := map[*ir.Func][]int{}
	for f, fr := range res.Funcs {
		var dead []int
		for _, b := range f.Blocks {
			if b == f.Entry {
				continue
			}
			reachable := false
			for _, pe := range b.Preds {
				if fr.EdgeFreq[pe.ID] > 0 {
					reachable = true
					break
				}
			}
			if !reachable {
				dead = append(dead, b.ID)
			}
		}
		sort.Ints(dead)
		out[f] = dead
	}
	return out
}

// --------------------------------------------------- bounds check removal

// BoundsCheck is one array access with its provability verdict.
type BoundsCheck struct {
	Fn        *ir.Func
	Instr     *ir.Instr // OpLoad or OpStore
	Removable bool
}

// BoundsReport summarises bounds-check elimination over a program.
type BoundsReport struct {
	Checks    []BoundsCheck
	Total     int
	Removable int
}

// EliminateBoundsChecks determines which implicit array bounds checks are
// redundant: the index range must be provably within [0, length) using
// the ranges VRP computed (§6: "many array bounds checks can be shown to
// be redundant by value range propagation").
func EliminateBoundsChecks(res *corevrp.Result) *BoundsReport {
	rep := &BoundsReport{}
	for _, f := range res.Prog.Funcs {
		fr := res.Funcs[f]
		if fr == nil {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpLoad && in.Op != ir.OpStore {
					continue
				}
				c := BoundsCheck{Fn: f, Instr: in}
				c.Removable = indexInBounds(f, fr, in)
				rep.Checks = append(rep.Checks, c)
				rep.Total++
				if c.Removable {
					rep.Removable++
				}
			}
		}
	}
	return rep
}

// indexInBounds proves 0 <= index < length from the final ranges.
func indexInBounds(f *ir.Func, fr *corevrp.FuncResult, in *ir.Instr) bool {
	idx := fr.Value(in.A)
	if idx.Kind() != vrange.Set || idx.IsInfeasible() {
		return false
	}
	// Lower bound: every range's Lo must be provably >= 0.
	for _, r := range idx.Ranges {
		d, ok := r.Lo.Diff(vrange.Num(0))
		if !ok || d < 0 {
			return false
		}
	}
	// Upper bound: every range's Hi must be provably < the allocation's
	// minimum length.
	allocDef := f.Defs[in.Arr]
	if allocDef == nil || allocDef.Op != ir.OpAlloc {
		return false
	}
	lenVal := fr.Value(allocDef.A)
	if lenVal.Kind() != vrange.Set || len(lenVal.Ranges) == 0 {
		return false
	}
	minLen := lenVal.Ranges[0].Lo
	for _, r := range lenVal.Ranges[1:] {
		if d, ok := r.Lo.Diff(minLen); ok && d < 0 {
			minLen = r.Lo
		} else if !ok {
			return false
		}
	}
	for _, r := range idx.Ranges {
		d, ok := r.Hi.Diff(minLen)
		if !ok || d >= 0 {
			return false
		}
	}
	return true
}

// -------------------------------------------------- alias disjointness

// AliasPair is a pair of accesses to the same array within one function.
type AliasPair struct {
	Fn       *ir.Func
	A, B     *ir.Instr
	Disjoint bool // proven non-overlapping index ranges
}

// AliasReport summarises array access disjointness (§6: "it is sometimes
// possible to show that the ranges of the indices of two array accesses
// cannot overlap").
type AliasReport struct {
	Pairs    []AliasPair
	Total    int
	Disjoint int
}

// DisjointArrayAccesses checks every same-array access pair per function.
func DisjointArrayAccesses(res *corevrp.Result) *AliasReport {
	rep := &AliasReport{}
	for _, f := range res.Prog.Funcs {
		fr := res.Funcs[f]
		if fr == nil {
			continue
		}
		var accesses []*ir.Instr
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpLoad || in.Op == ir.OpStore {
					accesses = append(accesses, in)
				}
			}
		}
		for i := 0; i < len(accesses); i++ {
			for j := i + 1; j < len(accesses); j++ {
				a, b := accesses[i], accesses[j]
				if rootArray(f, a.Arr) != rootArray(f, b.Arr) {
					continue // different allocations never alias
				}
				// Only store-involving pairs matter for dependences.
				if a.Op == ir.OpLoad && b.Op == ir.OpLoad {
					continue
				}
				p := AliasPair{Fn: f, A: a, B: b}
				p.Disjoint = rangesDisjoint(fr.Value(a.A), fr.Value(b.A))
				rep.Pairs = append(rep.Pairs, p)
				rep.Total++
				if p.Disjoint {
					rep.Disjoint++
				}
			}
		}
	}
	return rep
}

func rootArray(f *ir.Func, r ir.Reg) ir.Reg {
	for i := 0; i < 64; i++ {
		d := f.Defs[r]
		if d == nil {
			return r
		}
		switch d.Op {
		case ir.OpCopy:
			r = d.A
		case ir.OpAssert:
			r = d.Parent
		case ir.OpPhi:
			return r
		default:
			return r
		}
	}
	return r
}

// rangesDisjoint proves two index value ranges share no element.
func rangesDisjoint(a, b vrange.Value) bool {
	if a.Kind() != vrange.Set || b.Kind() != vrange.Set {
		return false
	}
	if len(a.Ranges) == 0 || len(b.Ranges) == 0 {
		return false
	}
	for _, ra := range a.Ranges {
		for _, rb := range b.Ranges {
			if !rangePairDisjoint(ra, rb) {
				return false
			}
		}
	}
	return true
}

func rangePairDisjoint(a, b vrange.Range) bool {
	// a entirely below b?
	if d, ok := a.Hi.Diff(b.Lo); ok && d < 0 {
		return true
	}
	if d, ok := b.Hi.Diff(a.Lo); ok && d < 0 {
		return true
	}
	// Same span but provably different stride offsets (e.g. 2i vs 2i+1).
	if a.Stride > 0 && b.Stride > 0 && a.Stride == b.Stride {
		if d, ok := a.Lo.Diff(b.Lo); ok && d%a.Stride != 0 {
			return true
		}
	}
	return false
}

// ------------------------------------------------------------ code layout

// LayoutReport compares the fallthrough quality of the original block
// order against the frequency-driven chain layout.
type LayoutReport struct {
	Order map[*ir.Func][]int // optimized block order
	// FallthroughBefore/After: fraction of dynamic control transfers that
	// are fallthroughs (higher is better for I-cache behaviour, §6).
	FallthroughBefore float64
	FallthroughAfter  float64
}

// LayoutChains builds a Pettis–Hansen-style bottom-up block layout from
// the predicted edge frequencies and scores it against the original
// layout.
func LayoutChains(res *corevrp.Result) *LayoutReport {
	rep := &LayoutReport{Order: map[*ir.Func][]int{}}
	var totalW, fallBefore, fallAfter float64

	for _, f := range res.Prog.Funcs {
		fr := res.Funcs[f]
		if fr == nil {
			continue
		}
		order := chainLayout(f, fr.EdgeFreq)
		rep.Order[f] = order

		posAfter := make([]int, len(f.Blocks))
		for i, id := range order {
			posAfter[id] = i
		}
		for _, e := range f.Edges {
			w := fr.EdgeFreq[e.ID]
			if w <= 0 {
				continue
			}
			totalW += w
			if e.To.ID == e.From.ID+1 {
				fallBefore += w
			}
			if posAfter[e.To.ID] == posAfter[e.From.ID]+1 {
				fallAfter += w
			}
		}
	}
	if totalW > 0 {
		rep.FallthroughBefore = fallBefore / totalW
		rep.FallthroughAfter = fallAfter / totalW
	}
	return rep
}

// chainLayout merges blocks into chains along the hottest edges, then
// emits chains by decreasing heat, entry chain first.
func chainLayout(f *ir.Func, edgeFreq []float64) []int {
	n := len(f.Blocks)
	next := make([]int, n)
	prev := make([]int, n)
	for i := range next {
		next[i], prev[i] = -1, -1
	}
	edges := append([]*ir.Edge(nil), f.Edges...)
	sort.SliceStable(edges, func(i, j int) bool {
		return edgeFreq[edges[i].ID] > edgeFreq[edges[j].ID]
	})
	headOf := func(b int) int {
		for prev[b] != -1 {
			b = prev[b]
		}
		return b
	}
	for _, e := range edges {
		if edgeFreq[e.ID] <= 0 {
			break
		}
		a, b := e.From.ID, e.To.ID
		if next[a] != -1 || prev[b] != -1 {
			continue // ends already taken
		}
		if headOf(a) == headOf(b) {
			continue // would close a cycle
		}
		next[a], prev[b] = b, a
	}
	// Emit: entry's chain, then remaining chains by hottest member.
	emitted := make([]bool, n)
	var order []int
	emitChain := func(head int) {
		for b := head; b != -1; b = next[b] {
			if !emitted[b] {
				emitted[b] = true
				order = append(order, b)
			}
		}
	}
	emitChain(headOf(f.Entry.ID))
	for _, b := range f.Blocks {
		if !emitted[b.ID] {
			emitChain(headOf(b.ID))
		}
	}
	return order
}
