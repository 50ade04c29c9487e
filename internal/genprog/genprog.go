// Package genprog deterministically generates large synthetic Mini
// programs for benchmarking the analysis at sizes the hand-written corpus
// does not reach. The hand corpus tops out under 5k IR instructions; the
// scaling benchmark (BenchmarkScaleNearLinear in internal/bench) and
// perfbench's gen-10k workload need ≥10k-instruction programs, where the
// analysis tables no longer fit comfortably in cache.
//
// The generated shape is deliberately adversarial for the range lattice:
//
//   - Diamond-heavy bodies: chains of if/else over modular and relational
//     conditions, so nearly every block ends in a two-way φ merge and the
//     comparison Bool/Refine paths run constantly.
//   - Deep loops: constant-bounded for nests (LoopDepth levels), so
//     loop-header φs, widening, and the frequency solver's cyclic
//     probabilities all engage.
//   - Cross-kernel calls: a thin call chain between kernels keeps the
//     interprocedural driver honest without exploding pass counts.
//
// Determinism is absolute, not best-effort: the generator uses its own
// splitmix64 stream, so a (Config, seed) pair produces byte-identical
// source on every platform and Go release forever. Benchmark points
// generated from it (BenchmarkScaleNearLinear's 10k/100k tiers,
// perfbench's gen-10k) are therefore comparable across runs.
package genprog

import (
	"fmt"
	"strings"
)

// rng is a splitmix64 stream: tiny, well-mixed, and stable by
// construction (unlike math/rand, whose sequences are outside the Go 1
// compatibility promise).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Config shapes one generated program. The zero value of every knob
// beyond the original four reproduces the pre-knob generator byte for
// byte: new shape features draw from the rng stream only when enabled,
// so existing seeds stay stable.
type Config struct {
	Seed      uint64
	Funcs     int // kernel function count
	Diamonds  int // if/else diamonds in each innermost loop body (diamond density)
	LoopDepth int // for-loop nesting depth per kernel

	// BodyStmts appends this many extra straight-line arithmetic
	// statements to each innermost loop body: function *size* grows
	// without changing branch density, so the knob separates
	// instructions-per-function from CFG shape.
	BodyStmts int

	// SCCWidth ≥ 2 links consecutive kernels into guarded
	// mutually-recursive rings of that width (f_i calls f_{i+1}, the last
	// ring member calls the first), making the call graph's condensation
	// carry SCCs of exactly this width. 0 or 1 keeps kernels
	// non-recursive.
	SCCWidth int

	// RecDepth ≥ 1 adds a dedicated chain of recursive helper functions
	// r0 → r1 → … → r_{RecDepth-1} → r0, each call guarded by a
	// decreasing counter, and makes every eighth kernel call into the
	// chain. The condensation gains one SCC of size RecDepth, exercising
	// recursion widening at configurable depth.
	RecDepth int
}

// Default is the configuration behind the benchmark tier: it compiles to
// ≥10k IR instructions (pinned by TestDefaultSize).
func Default() Config {
	return Config{Seed: 0x5eed, Funcs: 56, Diamonds: 6, LoopDepth: 3}
}

// Preset returns a named generator configuration, or ok=false. Presets
// come in two families:
//
//   - scale tier: "10k", "100k" — one fixed per-function shape
//     (diamonds, loops, straight-line padding, narrow recursion) scaled
//     purely by function count, so cost-per-instruction is comparable
//     across sizes and the 10k→100k step measures program-level scaling,
//     not shape drift;
//   - shape stress: "default", "wide-scc", "deep-loop", "recursive" —
//     small programs that push one CFG/call-graph dimension far past the
//     benchmark mix, for differential correctness tests.
func Preset(name string) (Config, bool) {
	switch name {
	case "default":
		return Default(), true
	case "10k":
		return Config{Seed: 0x10aD5, Funcs: 50, Diamonds: 6, LoopDepth: 3,
			BodyStmts: 4, SCCWidth: 4, RecDepth: 4}, true
	case "100k":
		return Config{Seed: 0x100aD5, Funcs: 500, Diamonds: 6, LoopDepth: 3,
			BodyStmts: 4, SCCWidth: 4, RecDepth: 4}, true
	case "wide-scc":
		return Config{Seed: 0x51dcc, Funcs: 48, Diamonds: 4, LoopDepth: 2,
			SCCWidth: 12}, true
	case "deep-loop":
		return Config{Seed: 0xdee9, Funcs: 10, Diamonds: 3, LoopDepth: 8}, true
	case "recursive":
		return Config{Seed: 0x2ec0, Funcs: 24, Diamonds: 4, LoopDepth: 2,
			RecDepth: 12}, true
	}
	return Config{}, false
}

// PresetNames lists every Preset name in deterministic order.
func PresetNames() []string {
	return []string{"default", "10k", "100k", "wide-scc", "deep-loop", "recursive"}
}

type gen struct {
	r      rng
	b      strings.Builder
	indent int
}

func (g *gen) w(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// diamond emits one if/else over the two kernel locals. Every arm writes
// at least one local, so the join is a real φ for the engine and a real
// two-way weighted merge for the lattice.
func (g *gen) diamond() {
	c := g.r.intn(7) + 2
	k := g.r.intn(17) - 8
	switch g.r.intn(4) {
	case 0:
		g.w("if (x %% %d == %d) {", c, g.r.intn(c))
		g.indent++
		g.w("x += y * 2;")
		g.indent--
		g.w("} else {")
		g.indent++
		g.w("x -= (y + %d);", c)
		g.indent--
		g.w("}")
	case 1:
		g.w("if (y < x) {")
		g.indent++
		g.w("y += %d;", c)
		g.indent--
		g.w("} else {")
		g.indent++
		g.w("y = x - y;")
		g.indent--
		g.w("}")
	case 2:
		g.w("if (x > %d) {", k)
		g.indent++
		g.w("x = (x %% %d) + y;", c+4)
		g.indent--
		g.w("} else {")
		g.indent++
		g.w("x += %d;", c)
		g.indent--
		g.w("}")
	default:
		g.w("if (y >= %d) {", k)
		g.indent++
		g.w("y -= (x %% %d);", c)
		g.indent--
		g.w("} else {")
		g.indent++
		g.w("y += x + %d;", c)
		g.indent--
		g.w("}")
	}
}

// filler emits one straight-line arithmetic statement over the kernel
// locals: no new branches, just instruction mass (the BodyStmts knob).
func (g *gen) filler() {
	c := g.r.intn(19) + 2
	switch g.r.intn(4) {
	case 0:
		g.w("x += (y %% %d) * %d;", c, g.r.intn(3)+1)
	case 1:
		g.w("y += x %% %d;", c)
	case 2:
		g.w("x -= y %% %d;", c)
	default:
		g.w("y -= %d - (x %% %d);", g.r.intn(9), c)
	}
}

// ringNext maps kernel i to its successor in an SCCWidth-wide ring of
// consecutive kernels (the last ring member wraps to the ring's first; a
// truncated tail ring narrows to whatever is left, down to a self-loop).
func ringNext(i, width, funcs int) int {
	start := (i / width) * width
	end := start + width
	if end > funcs {
		end = funcs
	}
	if next := i + 1; next < end {
		return next
	}
	return start
}

// helper emits recursive ring function r<j>(n, m): each helper calls the
// next ring member with a strictly decreasing counter, so the call graph
// gains one SCC of exactly RecDepth functions while the reference
// interpreter still terminates on any input.
func (g *gen) helper(j int, cfg Config) {
	g.w("func r%d(n, m) {", j)
	g.indent++
	g.w("var acc = m %% %d;", g.r.intn(200)+50)
	g.w("if (n > 0) {")
	g.indent++
	g.w("acc += r%d(n - 1, acc + %d);", (j+1)%cfg.RecDepth, g.r.intn(9))
	g.indent--
	g.w("}")
	g.w("if (acc > %d) {", g.r.intn(40))
	g.indent++
	g.w("return acc - %d;", g.r.intn(7))
	g.indent--
	g.w("}")
	g.w("return acc + %d;", j%13)
	g.indent--
	g.w("}")
}

// kernel emits one function f<i>(a, b): a LoopDepth-deep for nest whose
// innermost body is a chain of diamonds, with a thin call back to the
// previous kernel every fourth function. SCCWidth adds a guarded ring
// call (f<i> → next ring member, counter strictly decreasing); RecDepth
// routes every eighth kernel into the recursive helper chain; BodyStmts
// pads the innermost body with straight-line arithmetic.
func (g *gen) kernel(i int, cfg Config) {
	g.w("func f%d(a, b) {", i)
	g.indent++
	g.w("var x = a + %d;", g.r.intn(21)-10)
	g.w("var y = b - %d;", g.r.intn(11))
	if i > 0 && i%4 == 0 {
		if cfg.SCCWidth < 2 {
			g.w("y += f%d(x, %d);", i-1, g.r.intn(5))
		} else if i%cfg.SCCWidth == 0 {
			// f<i-1> sits in the previous ring: keep the entry argument
			// bounded so cross-ring recursion stays shallow at runtime.
			g.w("y += f%d(x %% 5, %d);", i-1, g.r.intn(5))
		}
		// Otherwise f<i-1> shares f<i>'s ring and the ring call below
		// already links them.
	}
	if cfg.SCCWidth >= 2 {
		g.w("if (a > %d) {", g.r.intn(2)+1)
		g.indent++
		g.w("y += f%d(a - %d, y %% %d);",
			ringNext(i, cfg.SCCWidth, cfg.Funcs), g.r.intn(2)+1, g.r.intn(63)+2)
		g.indent--
		g.w("}")
	}
	if cfg.RecDepth >= 1 && i%8 == 0 {
		g.w("y += r0(x %% %d, y);", g.r.intn(5)+3)
	}
	for d := 0; d < cfg.LoopDepth; d++ {
		g.w("for (var i%d = 0; i%d < %d; i%d += %d) {",
			d, d, g.r.intn(7)+3, d, g.r.intn(2)+1)
		g.indent++
	}
	for n := 0; n < cfg.Diamonds; n++ {
		g.diamond()
	}
	for n := 0; n < cfg.BodyStmts; n++ {
		g.filler()
	}
	g.w("x = (x %% 1024 + 1024) %% 1024;")
	for d := 0; d < cfg.LoopDepth; d++ {
		g.indent--
		g.w("}")
	}
	g.w("if (x > y) {")
	g.indent++
	g.w("return x - y;")
	g.indent--
	g.w("}")
	g.w("return y - x;")
	g.indent--
	g.w("}")
}

// EditFunc returns src with one extra statement (`y += <delta>;`)
// inserted into kernel k's body, right after its `var y = ...;` line. The
// edit changes exactly one function, so an incremental analyzer holding
// results for the unedited program should re-analyze only f<k>'s dirty
// cone. Reports false when src has no kernel k.
func EditFunc(src string, k int, delta int64) (string, bool) {
	header := fmt.Sprintf("func f%d(a, b) {\n", k)
	h := strings.Index(src, header)
	if h < 0 {
		return src, false
	}
	body := src[h+len(header):]
	y := strings.Index(body, "\tvar y = ")
	if y < 0 {
		return src, false
	}
	nl := strings.IndexByte(body[y:], '\n')
	if nl < 0 {
		return src, false
	}
	at := h + len(header) + y + nl + 1
	return src[:at] + fmt.Sprintf("\ty += %d;\n", delta) + src[at:], true
}

// Source renders the program for cfg. Same cfg, same bytes.
func Source(cfg Config) string {
	g := &gen{r: rng{s: cfg.Seed}}
	for j := 0; j < cfg.RecDepth; j++ {
		g.helper(j, cfg)
	}
	for i := 0; i < cfg.Funcs; i++ {
		g.kernel(i, cfg)
	}
	// With recursion enabled, recursion depth tracks a kernel's first
	// argument, so main passes bounded values; the accumulator t stays a
	// second argument only.
	rec := cfg.SCCWidth >= 2 || cfg.RecDepth >= 1
	g.w("func main() {")
	g.indent++
	g.w("var s = input();")
	g.w("var t = 0;")
	for i := 0; i < cfg.Funcs; i++ {
		if i%2 == 0 {
			if rec {
				g.w("t += f%d(s %% %d, t);", i, g.r.intn(9)+2)
			} else {
				g.w("t += f%d(s, t);", i)
			}
		} else {
			if rec {
				g.w("t += f%d(t %% %d, s);", i, g.r.intn(9)+2)
			} else {
				g.w("t += f%d(t, s %% %d);", i, g.r.intn(9)+2)
			}
		}
	}
	g.w("print(t);")
	g.indent--
	g.w("}")
	return g.b.String()
}
