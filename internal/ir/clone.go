package ir

// Clone deep-copies the function under a new name: blocks, instructions
// and edges are fresh objects with identical structure and IDs, so
// analyses of the clone are fully independent of the original. SSA
// metadata (Defs/Uses) is rebuilt on the clone.
func (f *Func) Clone(newName string) *Func {
	nf := &Func{
		Name:       newName,
		NumRegs:    f.NumRegs,
		SSA:        f.SSA,
		Params:     append([]Reg(nil), f.Params...),
		LineOffset: f.LineOffset,
	}
	if f.Names != nil {
		nf.Names = make(map[Reg]string, len(f.Names))
		for r, n := range f.Names {
			nf.Names[r] = n
		}
	}

	blockMap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID}
		blockMap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	nf.Entry = blockMap[f.Entry]

	edgeMap := make(map[*Edge]*Edge, len(f.Edges))
	for _, e := range f.Edges {
		ne := &Edge{ID: e.ID, From: blockMap[e.From], To: blockMap[e.To], Kind: e.Kind}
		edgeMap[e] = ne
		nf.Edges = append(nf.Edges, ne)
	}
	for _, b := range f.Blocks {
		nb := blockMap[b]
		for _, e := range b.Succs {
			nb.Succs = append(nb.Succs, edgeMap[e])
		}
		for _, e := range b.Preds {
			nb.Preds = append(nb.Preds, edgeMap[e])
		}
		for _, in := range b.Instrs {
			ni := *in
			ni.Block = nb
			if in.Args != nil {
				ni.Args = append([]Reg(nil), in.Args...)
			}
			nb.Instrs = append(nb.Instrs, &ni)
		}
	}
	if f.SSA {
		// Defs/Uses must point at the clone's instructions.
		if err := nf.BuildDefUse(); err != nil {
			// Structurally impossible: the original satisfied SSA.
			panic("ir: Clone broke SSA: " + err.Error())
		}
	}
	return nf
}
