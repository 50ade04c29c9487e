package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"vrp"
	"vrp/internal/bench"
	"vrp/internal/corpus"
	"vrp/internal/genprog"
	"vrp/internal/interp"
	"vrp/internal/ir"
	corevrp "vrp/internal/vrp"
)

// libProgram is one program of a library workload.
type libProgram struct {
	name   string
	src    string
	instrs int
	ref    uint64 // fingerprint of the set-up analysis's predictions
}

// library is the corpus and gen-10k workloads: each op compiles and
// analyzes one group of programs through the public facade with
// Workers: 1.
type library struct {
	groups [][]*libProgram
	order  []int // op i runs groups[order[i % len(order)]]
	next   int
	last   [][]*vrp.Analysis // per group, its last op's results (kept reachable for retained_mb)
	q      quality

	tracedPasses int // passes over all groups in the traced run
}

// newCorpus builds the corpus workload: one op is all 43 paper-suite
// programs in name order. The seed is unused.
func newCorpus(int64) (workload, error) {
	var progs []*libProgram
	var runs []func(*vrp.Program) (*interp.Profile, error)
	for _, cp := range corpus.All() {
		progs = append(progs, &libProgram{name: cp.Name, src: cp.Source})
		runs = append(runs, func(p *vrp.Program) (*interp.Profile, error) { return p.Run(cp.Ref) })
	}
	return newLibrary([][]*libProgram{progs}, []int{0}, runs, 5)
}

// gen10kPool is how many 10k-preset programs the gen-10k workload
// cycles through. Analysis cost differs by up to a quarter between
// generator seeds, so the pool is fixed and every run covers all of it;
// the run's seed only sets the order of the ops.
const gen10kPool = 4

// newGen10k builds the gen-10k workload: one op is one program of the
// pool — the genprog 10k preset and its next gen10kPool-1 generator
// seeds.
func newGen10k(seed int64) (workload, error) {
	cfg, _ := genprog.Preset("10k")
	groups := make([][]*libProgram, gen10kPool)
	runs := make([]func(*vrp.Program) (*interp.Profile, error), gen10kPool)
	for j := range groups {
		c := cfg
		c.Seed += uint64(j)
		groups[j] = []*libProgram{{name: fmt.Sprintf("gen-10k-%d", j), src: genprog.Source(c)}}
		// Step-bounded, as in internal/bench/quality.go: the generated
		// programs take no input and finish well within the budget.
		runs[j] = func(p *vrp.Program) (*interp.Profile, error) {
			return p.RunWith(nil, interp.Options{MaxSteps: 4 << 20})
		}
	}
	r := rng{s: uint64(seed)}
	return newLibrary(groups, r.perm(gen10kPool), runs, 1)
}

// newLibrary compiles and analyzes every program once to record its
// reference fingerprint and size, and scores the predictions against
// an interpreter run made by runs[i] for the i-th program.
func newLibrary(groups [][]*libProgram, order []int, runs []func(*vrp.Program) (*interp.Profile, error), tracedPasses int) (*library, error) {
	l := &library{groups: groups, order: order, tracedPasses: tracedPasses, last: make([][]*vrp.Analysis, len(groups))}
	var evals []*bench.ProgramEval
	i := 0
	for gi, g := range groups {
		l.last[gi] = make([]*vrp.Analysis, len(g))
		for _, lp := range g {
			p, err := vrp.Compile(lp.name+".mini", lp.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lp.name, err)
			}
			a, err := p.Analyze(vrp.WithWorkers(1))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lp.name, err)
			}
			prof, err := runs[i](p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lp.name, err)
			}
			i++
			lp.instrs = p.IR.NumInstrs()
			lp.ref = fingerprint(a.Result)
			evals = append(evals, score(p.IR, a.Result, prof))
		}
	}
	l.q = scoreAll(evals)
	return l, nil
}

// group returns the index of the group the current op runs.
func (l *library) group() int { return l.order[l.next%len(l.order)] }

func (l *library) prepare() {}

func (l *library) op() int {
	n := 0
	gi := l.group()
	for i, lp := range l.groups[gi] {
		l.last[gi][i] = nil
		p, err := vrp.Compile(lp.name+".mini", lp.src)
		if err != nil {
			continue
		}
		if a, err := p.Analyze(vrp.WithWorkers(1)); err == nil {
			l.last[gi][i] = a
		}
		n += lp.instrs
	}
	return n
}

func (l *library) check() bool {
	ok := true
	gi := l.group()
	for i, lp := range l.groups[gi] {
		if a := l.last[gi][i]; a == nil || fingerprint(a.Result) != lp.ref {
			ok = false
		}
	}
	l.next++
	return ok
}

func (l *library) idle() bool { return l.next%len(l.order) == 0 }

func (l *library) setupChecks() (int, int) { return 0, 0 }

func (l *library) quality() quality { return l.q }

func (l *library) corrupt() { l.groups[0][0].ref ^= 1 }

// trace replays the timed ops layer by layer: tracedPasses passes over
// every group for CPU time and counts, one more for allocation bytes
// (memory probes stop the world, so they stay out of the CPU pass), and
// one analysis per program with telemetry on for the interning tables'
// hit rates.
func (l *library) trace() (metrics, error) {
	cpu, mem, tel := newLayerTrace(false), newLayerTrace(true), newLayerTrace(false)
	pass := func(t *layerTrace, withTelemetry bool) error {
		for _, gi := range l.order {
			c0 := cpuNow()
			for _, lp := range l.groups[gi] {
				res, err := t.pipeline(lp.name+".mini", lp.src, nil, withTelemetry)
				if err != nil {
					return fmt.Errorf("%s: %w", lp.name, err)
				}
				if fingerprint(res) != lp.ref {
					return fmt.Errorf("%s: traced predictions differ from the reference", lp.name)
				}
			}
			t.total += cpuNow() - c0
			t.ops++
		}
		return nil
	}
	for i := 0; i < l.tracedPasses; i++ {
		if err := pass(cpu, false); err != nil {
			return nil, err
		}
	}
	if err := pass(mem, false); err != nil {
		return nil, err
	}
	if err := pass(tel, true); err != nil {
		return nil, err
	}
	return cpu.metrics(mem, tel), nil
}

// fingerprint hashes every branch prediction of a result — function,
// source position, probability bits and source — in program order.
func fingerprint(res *corevrp.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, br := range res.Branches() {
		h.Write([]byte(br.Fn.Name))
		binary.LittleEndian.PutUint32(buf[:4], uint32(br.Instr.Pos.Line))
		binary.LittleEndian.PutUint32(buf[4:], uint32(br.Instr.Pos.Col))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(br.Prob))
		h.Write(buf[:])
		h.Write([]byte{byte(br.Source)})
	}
	return h.Sum64()
}

// quality is the paper's §5 accuracy: mean absolute probability error,
// execution-weighted and unweighted, and the dynamic taken/not-taken
// hit rate, with each program weighted equally.
type quality struct{ errW, errU, hit float64 }

// score turns one analysis into internal/bench's scoring rows for the
// VRP predictor, in the order bench.EvalProgram produces them.
func score(p *ir.Program, res *corevrp.Result, prof *interp.Profile) *bench.ProgramEval {
	ev := &bench.ProgramEval{}
	for _, br := range res.Branches() {
		actual, ran := prof.BranchProb(br.Fn, br.Instr)
		if !ran {
			continue
		}
		b := br.Instr.Block
		ec := prof.EdgeCount[br.Fn]
		ev.Records = append(ev.Records, bench.BranchRecord{
			Actual: actual,
			Weight: float64(ec[b.Succs[0].ID] + ec[b.Succs[1].ID]),
			Pred:   map[string]float64{bench.PredVRP: br.Prob},
		})
	}
	return ev
}

// scoreAll applies internal/bench's program-equal averaging, so these
// numbers and the `vrpbench` harness cannot disagree.
func scoreAll(evals []*bench.ProgramEval) quality {
	return quality{
		errW: bench.MeanError(evals, true)[bench.PredVRP],
		errU: bench.MeanError(evals, false)[bench.PredVRP],
		hit:  bench.HitRates(evals)[bench.PredVRP],
	}
}

// rng is splitmix64, the generator genprog uses.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}
