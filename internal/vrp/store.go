package vrp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"vrp/internal/ir"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
)

// The per-function result store extends the driver's within-run dirty-set
// skipping (driver.go) across analysis runs: Patterson's fixpoint is
// per-procedure over the call graph, so one engine run is a deterministic
// function of exactly three things — the function's IR body, the frozen
// interprocedural input snapshot, and the configuration. A store entry
// keys on all three and replays the run's outputs (values, frequencies,
// branch probabilities, the effort record), making a request that edits one
// function of a large program re-analyze only its dirty cone while every
// clean function is spliced from the store, bit-identical to a cold run.
//
// Collision discipline mirrors the interner's (vrange/intern.go): the
// 64-bit fingerprints only locate a bucket; every hit is confirmed
// against the stored key material (canonical body bytes, callee-name
// binding, bit-equal input values) before anything is served. A
// fingerprint collision is counted by the implementation and treated as
// a miss, never unified.
//
// Two subtleties the key construction must (and does) handle:
//
//   - The engine resolves callees by name, but the driver's input vector
//     orders callee returns by program function index — an ordering the
//     body alone does not determine. The key therefore records the
//     callee-name list alongside the input values; confirmation checks
//     names, so the same body compiled into a differently-ordered
//     program can never alias another entry's inputs positionally.
//   - Source positions are excluded from the body encoding: a one-line
//     edit shifts every later function's positions, and including them
//     would invalidate the whole store on each edit. Spliced predictions
//     take positions from the request's own IR.

// FuncStore is the cross-request per-function result store consulted by
// the driver when Config.FuncStore is set. Implementations must be safe
// for concurrent use and must confirm the full key (FuncKey.SameKey)
// before reporting a hit — fingerprint equality alone is not a hit.
// Entries must only be shared between runs with an identical Config
// (ConfigFP guards the comparable fields; the Fallback and Evidence
// functions cannot be fingerprinted, so callers with custom fallbacks or
// evidence hooks must not share a store across them). A record's settled
// part caches Fallback and Evidence answers, so both hooks must also be
// functions of the function body alone, as the engine's use of Fallback
// already requires.
type FuncStore interface {
	// Lookup returns the stored result for key, or false. Implementations
	// must not retain key.
	Lookup(key *FuncKey) (*StoredFunc, bool)
	// Store records sf under key. The driver passes a detached key and
	// record (no aliasing into live analysis state); implementations may
	// retain both.
	Store(key *FuncKey, sf *StoredFunc)
}

// FuncKey identifies one function-level analysis result: the canonical
// body encoding, the interprocedural input snapshot bound to callee
// names, and the configuration fingerprint.
type FuncKey struct {
	BodyFP   uint64 // fingerprint of Body
	InputFP  uint64 // fingerprint of Callees+Inputs
	ConfigFP uint64 // fingerprint of the engine-relevant Config fields

	Body    []byte         // canonical position-free body encoding (EncodeFuncBody)
	Callees []string       // callee names in input-vector order: Inputs[len(params)+i] is Callees[i]'s return
	Inputs  []vrange.Value // formal-parameter merges, then callee returns
}

// SameKey reports full key equality: fingerprints, body bytes, callee
// binding and bit-identical input values. This is the confirm step that
// makes fingerprint collisions harmless.
func (k *FuncKey) SameKey(o *FuncKey) bool {
	if k.BodyFP != o.BodyFP || k.InputFP != o.InputFP || k.ConfigFP != o.ConfigFP {
		return false
	}
	if !bytes.Equal(k.Body, o.Body) {
		return false
	}
	if len(k.Callees) != len(o.Callees) {
		return false
	}
	for i := range k.Callees {
		if k.Callees[i] != o.Callees[i] {
			return false
		}
	}
	return bitEqualVec(k.Inputs, o.Inputs)
}

// Detach returns a copy safe to retain beyond the producing analysis:
// input values get their own ranges (the originals may alias arena slabs
// a later run rewinds). Body and Callees are immutable after
// construction and are shared.
func (k *FuncKey) Detach() *FuncKey {
	c := *k
	c.Inputs = append([]vrange.Value(nil), k.Inputs...)
	vrange.DetachAll(c.Inputs)
	return &c
}

// StoredFunc is one engine run's portable output: the run's FuncResult,
// with Fn nil and detached values, which a later analysis splices in
// place of re-running the engine, plus the run's effort record so warm
// Stats and telemetry replay bit-identical to a cold run. Every result
// spliced from a record shares its slices, so nothing writes into them.
//
// A record also carries a settled part: the post-fixpoint work the driver
// does on the function's final result (its non-convergence demotion and
// its share of the quality digest). It is a pure function of the record
// and the Config's Fallback and Evidence hooks, so it is computed at most
// once per record, by the first run that needs it, and published for
// later runs to splice. The FuncStore contract on Fallback and Evidence
// covers it. A store that hands out copies of its records never caches
// it, which costs only speed.
type StoredFunc struct {
	FuncResult           // Fn nil; values detached
	BlkFreq    []float64 // per Block.ID (pre-clamp; splice re-applies the maxFreq clamp)

	// Effort is the engine run's work, replayed into the splicing run's
	// per-function slot. Its SubOps and Widens cover only the engine's
	// own share of the calculator's work: the input snapshot and the
	// interprocedural update are re-executed live on splice and account
	// for their own. Table-warmth traffic is never stored.
	Effort Effort

	settled atomic.Pointer[settled]
}

// settled is the post-fixpoint part of one function's result. It is
// immutable once built; records share it across concurrent runs.
type settled struct {
	// tops lists the registers whose value is ⊤. When there are any, a
	// non-converged run demotes the function: it demotes those values to
	// ⊥ (in a per-run copy when a record shares them: a value vector is
	// the largest slice of a record, so it is not kept demoted), and
	// installs prob, src and edgeFreq in place of the result's slices —
	// the probabilities with each of the stale range-certain (Source
	// ByRange, P ∈ {0, 1}) branches replaced by its Fallback probability
	// and marked ByHeuristic, and the edge frequencies re-solved from
	// them (clamped to maxFreq). Without stale branches prob, src and
	// edgeFreq are the result's own. A function without ⊤ cells is never
	// demoted.
	tops     []int32
	stale    int
	prob     []float64
	src      []PredictionSource
	edgeFreq []float64

	// census is the function's share of the quality digest as its final
	// result stands, and demoted (set when there are ⊤ cells) as the
	// demotion leaves it. A part settled for a run without telemetry has
	// neither; a nil census marks it.
	census, demoted *telemetry.FuncCensus
}

// addCell classifies one final register value into c.
func addCell(c *telemetry.FuncCensus, v vrange.Value) {
	cl, w := vrange.Classify(v)
	r := &c.Row
	r.Cells++
	set := 2 + min(len(v.Ranges), 5) // ∅ is bucket 2, "1" bucket 3
	switch cl {
	case vrange.ClassTop:
		r.Top++
		set = 0
	case vrange.ClassBottom:
		r.Bottom++
		set = 1
	case vrange.ClassInfeasible:
		r.Infeasible++
	case vrange.ClassSymbolic:
		r.Symbolic++
	case vrange.ClassPoint:
		r.Point++
	case vrange.ClassNarrow:
		r.Narrow++
	case vrange.ClassWide:
		r.Wide++
	}
	c.SetSize[set]++
	if cl == vrange.ClassPoint || cl == vrange.ClassNarrow || cl == vrange.ClassWide {
		c.Width[telemetry.WidthBucket(w)]++
		c.Log2Width += math.Log2(float64(w) + 1)
	}
}

// addBranch counts one branch's prediction into c and credits its
// evidence: "range" or "default", or for a heuristic branch each
// Ball–Larus heuristic in evs, plus "dempster-shafer" for two or more
// and "uniform" for none ("heuristic" without an Evidence hook).
// Row.Score sums the branches' evidence weights until settle turns it
// into their mean.
func (d *driver) addBranch(c *telemetry.FuncCensus, p float64, src PredictionSource, evs []EvidenceItem) {
	r := &c.Row
	r.Branches++
	c.Confidence[telemetry.ConfidenceBucket(p)]++
	switch {
	case src == ByRange && (p == 0 || p == 1):
		r.Range++
		r.Certain++
		r.Score += 1.0
		c.Credit("range")
	case src == ByRange:
		r.Range++
		r.Score += 0.7
		c.Credit("range")
	case src == ByHeuristic:
		r.Heuristic++
		r.Score += 0.4
		switch {
		case d.cfg.Evidence == nil:
			c.Credit("heuristic")
		case len(evs) == 0:
			c.Credit("uniform")
		}
		for _, ev := range evs {
			c.Credit(ev.Name)
		}
		if len(evs) >= 2 {
			c.Credit("dempster-shafer")
		}
	default:
		r.Default++
		c.Credit("default")
	}
}

// EncodeFuncBody renders f's analysis-relevant structure into canonical
// bytes: opcodes, registers, constants, φ/call arguments, CFG shape
// (blocks, edge endpoints and kinds, successor/predecessor edge order)
// and, per call, the callee name plus whether the program resolves it
// (an unresolved callee evaluates to ⊥, so resolvability is part of the
// transfer function). Source positions and variable names are excluded
// on purpose — they do not influence any analysis output bit.
func EncodeFuncBody(f *ir.Func, prog *ir.Program) []byte {
	// Pre-size roughly: a dozen varints per instruction.
	buf := make([]byte, 0, 16*f.NumInstrs()+64)
	u := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	i64 := func(v int64) { buf = binary.AppendVarint(buf, v) }
	str := func(s string) { u(uint64(len(s))); buf = append(buf, s...) }

	u(uint64(f.NumRegs))
	u(uint64(len(f.Params)))
	for _, p := range f.Params {
		u(uint64(p))
	}
	u(uint64(f.Entry.ID))
	u(uint64(len(f.Edges)))
	for _, e := range f.Edges {
		u(uint64(e.From.ID))
		u(uint64(e.To.ID))
		u(uint64(e.Kind))
	}
	u(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		u(uint64(b.ID))
		u(uint64(len(b.Succs)))
		for _, e := range b.Succs {
			u(uint64(e.ID))
		}
		u(uint64(len(b.Preds)))
		for _, e := range b.Preds {
			u(uint64(e.ID))
		}
		u(uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			u(uint64(in.Op))
			u(uint64(in.Dst))
			u(uint64(in.A))
			u(uint64(in.B))
			u(uint64(in.Arr))
			i64(in.Const)
			u(uint64(in.BinOp))
			i64(int64(in.ArgIndex))
			u(uint64(in.Parent))
			u(uint64(len(in.Args)))
			for _, a := range in.Args {
				u(uint64(a))
			}
			if in.Op == ir.OpCall {
				str(in.Callee)
				resolved := uint64(0)
				if prog != nil && prog.ByName[in.Callee] != nil {
					resolved = 1
				}
				u(resolved)
			}
		}
	}
	return buf
}

// configFingerprint digests the Config fields that influence analysis
// output bits. Workers, Telemetry and Trace/TraceParent are excluded
// (bit-identical by contract — observers never feed back into the
// lattice); a custom Fallback or Evidence hook is marked (a settled part
// holds the answers of both) but cannot be distinguished from another
// custom one — see the FuncStore contract. The package
// constants (freqEpsilon, maxFreq) need no bits: store keys live only in
// process memory, where one build's constants hold.
func configFingerprint(cfg Config) uint64 {
	h := vrange.NewHasher()
	h.AddBytes([]byte(fmt.Sprintf("%#v", cfg.Range)))
	flags := uint64(0)
	if cfg.Derivation {
		flags |= 1
	}
	if cfg.Interprocedural {
		flags |= 2
	}
	if cfg.FlowFirst {
		flags |= 4
	}
	if cfg.Fallback != nil {
		flags |= 8
	}
	if cfg.noSkip {
		flags |= 16
	}
	if cfg.Evidence != nil {
		flags |= 32
	}
	h.AddWord(flags)
	h.AddWord(uint64(cfg.MaxPasses))
	h.AddWord(uint64(cfg.RecWidenAfter))
	h.AddWord(uint64(cfg.MaxEvals))
	h.AddWord(uint64(cfg.MaxEngineSteps))
	return h.Sum()
}

// bodyKey returns fi's canonical body encoding and fingerprint: the ones
// the function carries from a compile cache, which store keys then share,
// or else computed once per driver and cached. Slot ownership follows the
// driver's per-function discipline (one task per function per wave,
// barriers between waves), so lazy fill is race-free.
func (d *driver) bodyKey(fi int) ([]byte, uint64) {
	if f := d.cg.Funcs[fi]; f.BodyEnc != nil {
		return f.BodyEnc, f.BodyFP
	}
	if d.bodyEnc[fi] == nil {
		d.bodyEnc[fi] = EncodeFuncBody(d.cg.Funcs[fi], d.prog)
		d.bodyFPs[fi] = vrange.HashBytes(d.bodyEnc[fi])
	}
	return d.bodyEnc[fi], d.bodyFPs[fi]
}

// funcKey assembles fi's store key for the input snapshot in. The input
// fingerprint binds callee names to their positions, so positional
// aliasing across differently-ordered programs is impossible, and folds
// in the snapshot's value hash rather than hashing the values again.
func (d *driver) funcKey(fi int, in *funcInputs) *FuncKey {
	body, bodyFP := d.bodyKey(fi)
	callees := d.cg.Callees[fi]
	names := make([]string, len(callees))
	h := vrange.NewHasher()
	for i, ci := range callees {
		names[i] = d.cg.Funcs[ci].Name
		h.AddBytes([]byte(names[i]))
	}
	h.AddWord(in.hash)
	return &FuncKey{
		BodyFP:   bodyFP,
		InputFP:  h.Sum(),
		ConfigFP: d.configFP,
		Body:     body,
		Callees:  names,
		Inputs:   in.vec,
	}
}

// spliceStored returns the FuncResult of a stored record (sharing its
// slices) and the blockFreq closure ip.update needs, against the current
// request's own IR. A record whose slices do not fit the function is a
// miss: with body confirmation it cannot happen, but a store bug must
// degrade to a fresh engine run, never to corrupt output.
func (d *driver) spliceStored(fi int, sf *StoredFunc) (*FuncResult, func(*ir.Block) float64, bool) {
	f := d.cg.Funcs[fi]
	nb := len(f.Blocks)
	if len(sf.val) != f.NumRegs || len(sf.EdgeFreq) != len(f.Edges) || len(sf.BlkFreq) != nb ||
		len(sf.Prob) != nb || len(sf.Source) != nb || len(sf.Derived) != f.NumInstrs() {
		return nil, nil, false
	}
	fr := sf.FuncResult
	fr.Fn = f
	return &fr, blockFreqOf(f, sf.BlkFreq), true
}

// blockFreqOf is the blockFreq closure over a per-block frequency vector,
// clamped as the engine's.
func blockFreqOf(f *ir.Func, blk []float64) func(*ir.Block) float64 {
	return func(b *ir.Block) float64 {
		if b == f.Entry {
			return 1
		}
		return min(blk[b.ID], maxFreq)
	}
}
