// Package unitcache compiles Mini programs one function at a time and
// keeps each compiled function for the next program that contains it
// unchanged. A function's SSA IR depends only on its own text, the
// column it starts at (the positions of its first line), the program's
// signature table (sem checks calls against each callee's arity) and
// whether π-assertions are inserted; calls name their callee, so no
// other function's IR enters it. An edit of one function of a large
// program then parses, checks, lowers and SSA-converts that function
// only.
//
// Programs compiled through a cache share their functions' blocks,
// instructions and SSA metadata with the cache and with each other;
// each program gets its own ir.Func header, whose LineOffset moves the
// shared positions to the lines the function starts on in that program.
// Such programs must not be transformed in place (procedure cloning, the
// optimizer).
package unitcache

import (
	"strconv"
	"strings"
	"sync/atomic"

	"vrp/internal/ast"
	"vrp/internal/ir"
	"vrp/internal/irgen"
	"vrp/internal/lexer"
	"vrp/internal/lru"
	"vrp/internal/parser"
	"vrp/internal/sem"
	"vrp/internal/source"
	"vrp/internal/ssaform"
	"vrp/internal/telemetry"
	"vrp/internal/vrange"
	corevrp "vrp/internal/vrp"
)

// MaxTextBytes bounds the function text the cache holds, summed over
// its units: one program of the largest size vrpd accepts by default
// fits whole. A unit's IR and body encoding take about 75 times its
// text on generated programs, so a full cache holds about 75 MB.
const MaxTextBytes = 1 << 20

// Cache is a bounded LRU of compiled functions, at most one version per
// function name. It is safe for concurrent use.
//
// The name only locates a unit; a probe confirms it by its text and
// column, signature table and assertion setting before reusing it. A
// failed confirm is a miss, and the unit compiled for it replaces the
// older version.
type Cache struct {
	units *lru.Cache[string, *unit] // function name → its latest version; cost = text bytes
	sig   atomic.Pointer[string]    // the signature table of the last units compiled

	hits, misses atomic.Int64
}

// unit is one compiled function and the key it was compiled under. It
// is immutable once in the cache.
type unit struct {
	name         string
	text         string  // a copy of the function's source text
	col          int     // column of its 'func' keyword
	arity        int     // its number of parameters
	sig          *string // the program's signature table, shared by the units compiled under it
	noAssertions bool

	fn *ir.Func // SSA form compiled as if the function started on line 1; BodyEnc set
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{units: lru.New[string, *unit](MaxTextBytes)}
}

// Stats returns how many function units compiles found in the cache
// (hits) and compiled (misses).
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Compile compiles src as vrp.CompileWith does, reusing every function
// the cache holds under the same key and caching the ones it compiles.
// Its IR, read through ir.Func.Pos, equals a fresh compile's. It returns
// nil when src does not compile, or does not split into function units
// (lexer.Units; split gives the same answer lexing only the units the
// cache does not hold); only a whole-program compile reports the errors
// then.
// tr, when non-nil, gets "parse" (splitting, parsing and checking) and
// "ssa" (lowering and SSA conversion) spans under parent.
func (c *Cache) Compile(name, src string, noAssertions bool, tr *telemetry.Trace, parent telemetry.SpanID) *ir.Program {
	parseSpan := tr.Start(parent, "phase", "parse")
	defer tr.End(parseSpan) // End is idempotent
	file := source.NewFile(name, src)
	units, got, pos, ok := c.split(file)
	if !ok {
		return nil
	}
	sig, arity := signatures(units)
	if arity == nil {
		return nil
	}

	// Confirm every unit split found in the cache; the others are
	// compiled below.
	var missed []int
	// Units compiled under one signature table share one pointer to it,
	// so a unit's table is matched by a pointer compare.
	st := &sig
	if last := c.sig.Load(); last != nil && *last == sig {
		st = last
	}
	for i, lu := range units {
		if u := got[i]; u != nil && u.sig == st && u.noAssertions == noAssertions {
			continue
		}
		got[i] = &unit{name: lu.Name, text: src[lu.Start:lu.End], col: pos[i].Col, arity: lu.Arity, sig: st, noAssertions: noAssertions}
		missed = append(missed, i)
	}
	c.hits.Add(int64(len(units) - len(missed)))
	c.misses.Add(int64(len(missed)))
	if tr != nil {
		tr.Annotate(parseSpan, "units", strconv.Itoa(len(units)))
		tr.Annotate(parseSpan, "compiled", strconv.Itoa(len(missed)))
	}

	// A function is compiled from a copy of its text, so that the names
	// in its IR slice the copy the cache keeps and not the request's
	// source. The copy starts at its column on line 1.
	decls := make([]*ast.FuncDecl, len(missed))
	for k, i := range missed {
		u := got[i]
		u.text = strings.Clone(u.text)
		ufile := source.NewFileAt(name, u.text, u.col)
		fd, err := parser.ParseFunc(ufile)
		if err != nil || sem.CheckFunc(ufile, fd, arity) != nil {
			return nil
		}
		u.name = fd.Name
		decls[k] = fd
	}
	tr.End(parseSpan)
	ssaSpan := tr.Start(parent, "phase", "ssa")
	defer tr.End(ssaSpan)
	var gen irgen.Generator
	var ssa ssaform.Builder
	for k, i := range missed {
		fn, err := gen.Func(decls[k])
		if err != nil || ssa.Func(fn, ssaform.Options{NoAssertions: noAssertions}) != nil {
			return nil
		}
		got[i].fn = fn
	}

	p := &ir.Program{Funcs: make([]*ir.Func, len(units)), ByName: make(map[string]*ir.Func, len(units)), File: file}
	for _, u := range got {
		p.ByName[u.name] = u.fn // resolves callees for the body encodings
	}
	for _, i := range missed {
		fn := got[i].fn
		fn.BodyEnc = corevrp.EncodeFuncBody(fn, p)
		fn.BodyFP = vrange.HashBytes(fn.BodyEnc)
	}
	for i, u := range got {
		f := *u.fn
		f.LineOffset = pos[i].Line - 1
		p.Funcs[i] = &f
		p.ByName[u.name] = &f
	}
	// Publish the compiled units, each replacing its name's older version.
	c.sig.Store(st)
	for _, i := range missed {
		c.units.Put(got[i].name, got[i], len(got[i].text))
	}
	return p
}

// split splits file into its units as lexer.Units does, but takes a
// unit whose text the cache holds, byte for byte at the same offset and
// column, without lexing it. That text split as a unit when it was
// compiled, and a unit starts at a token boundary and ends at a '}'
// that nothing glues to, so the same bytes lex to the same tokens
// wherever they stand. cached[i] is the cache's version of units[i]
// when it was taken so, nil otherwise; pos[i] is where units[i] starts.
func (c *Cache) split(file *source.File) (units []lexer.Unit, cached []*unit, pos []source.Pos, ok bool) {
	s := lexer.NewSplitter(file)
	for {
		lu, done, ok := s.Head()
		if done {
			return units, cached, pos, s.OK()
		}
		if !ok {
			return nil, nil, nil, false
		}
		p := file.PosFor(lu.Start)
		u, hit := c.units.Get(lu.Name)
		if hit && u.col == p.Col && strings.HasPrefix(file.Src[lu.Start:], u.text) {
			lu.Arity, lu.End = u.arity, lu.Start+len(u.text)
			s.Skip(lu.End)
		} else {
			u = nil
			if !s.Body(&lu) {
				return nil, nil, nil, false
			}
		}
		units, cached, pos = append(units, lu), append(cached, u), append(pos, p)
	}
}

// signatures returns the program's signature table, as a string of
// name/arity pairs in unit order, and as the map sem checks calls
// against. arity is nil when a name repeats or main is missing: those
// are program-level errors.
func signatures(units []lexer.Unit) (sig string, arity map[string]int) {
	arity = make(map[string]int, len(units))
	var b []byte
	for _, u := range units {
		if _, dup := arity[u.Name]; dup {
			return "", nil
		}
		arity[u.Name] = u.Arity
		b = append(b, u.Name...)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(u.Arity), 10)
		b = append(b, ';')
	}
	if _, ok := arity["main"]; !ok {
		return "", nil
	}
	return string(b), arity
}
