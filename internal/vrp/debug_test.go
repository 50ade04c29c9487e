package vrp

import (
	"fmt"
	"testing"

	"vrp/internal/ir"
	"vrp/internal/vrange"
)

// TestDebugDump prints the IR and analysis state of the paper example when
// run with -v; it never fails and exists to aid engine debugging.
func TestDebugDump(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("debug dump only under -v")
	}
	p := compile(t, paperExample)
	fmt.Println(p.String())
	res, err := Analyze(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	fr := res.Funcs[f]
	name := func(r ir.Reg) string {
		if n, ok := f.Names[r]; ok {
			return n
		}
		return fmt.Sprintf("r%d", r)
	}
	for r := ir.Reg(1); int(r) < f.NumRegs; r++ {
		v := fr.Value(r)
		if v.Kind() == vrange.Top {
			continue
		}
		fmt.Printf("%-8s = %s\n", name(r), v.Format(name))
	}
	for _, e := range f.Edges {
		fmt.Printf("edge %s freq %.4f\n", e, fr.EdgeFreq[e.ID])
	}
	for _, br := range res.Branches() {
		fmt.Printf("branch %v p=%.4f src=%v\n", br.Instr, br.Prob, br.Source)
	}
}
