package vrp

import (
	"fmt"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

const nestedSrc = `
func main() {
	var n = input();
	if (n < 4) { n = 4; }
	if (n > 24) { n = 24; }
	var acc = 0;
	for (var i = 0; i < n; i++) {
		for (var j = 0; j < n; j++) {
			acc = acc + j;
		}
	}
	print(acc);
}
`

// TestNestedLoopDerivation: both loop-control branches must be predicted
// from derived ranges, including the outer loop that contains another
// loop.
func TestNestedLoopDerivation(t *testing.T) {
	res := analyze(t, nestedSrc, DefaultConfig())
	var loopBranches int
	for _, br := range res.Branches() {
		// The two ⊥ clamp branches are legitimately heuristic; the two
		// loop branches must come from ranges.
		if br.Prob > 0.85 || br.Source == ByRange {
			loopBranches++
			if br.Source != ByRange {
				t.Errorf("loop branch %s: source %v, want range (p=%.3f)", br.Instr, br.Source, br.Prob)
			}
		}
	}
	if testing.Verbose() {
		p := compile(t, nestedSrc)
		fmt.Println(p.String())
		f := p.Main()
		res2, _ := Analyze(p, DefaultConfig())
		fr := res2.Funcs[f]
		name := func(r ir.Reg) string {
			if n, ok := f.Names[r]; ok {
				return n
			}
			return fmt.Sprintf("r%d", r)
		}
		for r := ir.Reg(1); int(r) < f.NumRegs; r++ {
			if fr.Value(r).Kind() == vrange.Top {
				continue
			}
			fmt.Printf("%-8s = %s\n", name(r), fr.Value(r).Format(name))
		}
		for _, br := range res2.Branches() {
			fmt.Printf("branch %v p=%.4f src=%v\n", br.Instr, br.Prob, br.Source)
		}
	}
}
