package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"vrp"
	"vrp/internal/bench"
	"vrp/internal/genprog"
	"vrp/internal/interp"
	"vrp/internal/server"
	corevrp "vrp/internal/vrp"
)

const (
	// sessionRepeats is how many of a session's requests re-send an
	// earlier program; the others edit each kernel of the base program
	// once.
	sessionRepeats = 19
	// coldChecks is how many of a session's edit responses set-up
	// compares with a server that has no result cache and no funcstore.
	coldChecks = 6
)

type vrpdRequest struct {
	prog int  // index into vrpdEdit.progs
	edit bool // first time this program is sent
}

// vrpdEdit is the vrpd-edit workload: a seeded session of edits to the
// genprog default program and verbatim repeats, sent in process through
// the vrpd handler. Each session runs on a fresh server seeded with the
// base program, so every session does the same work.
type vrpdEdit struct {
	progs  [][]byte // distinct programs; progs[0] is the base
	instrs []int
	reqs   []vrpdRequest
	ref    [][]byte // warm-up session's response body per request

	checks, bad int // set-up output checks
	q           quality

	srv    *server.Server // current session's server
	i      int            // next request of the session
	status int            // last op's response
	body   []byte
}

func serverConfig(cold bool) server.Config {
	cfg := server.Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if cold {
		cfg.CacheEntries, cfg.FuncStoreEntries = -1, -1
	}
	return cfg
}

// post sends src to /v1/analyze through h and returns the status and body.
func post(h http.Handler, src []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(src)))
	return rec.Code, rec.Body.Bytes()
}

// newVrpdEdit makes the session from seed: one genprog.EditFunc edit of
// every kernel of the base program, in a seeded order, each stacked onto
// the previous edit, with sessionRepeats verbatim re-sends of an earlier
// program at seeded places (about one request in four). Every seed thus
// edits the same kernels, which keeps the work of a session independent
// of the seed. It then runs one warm-up session, whose responses become
// the reference, and checks it: every status is 200, every repeat equals
// its program's first response, a seeded subset of edits equals a cold
// server's response, and the base program's predictions equal the
// library's.
func newVrpdEdit(seed int64) (workload, error) {
	gcfg := genprog.Default()
	cur := genprog.Source(gcfg)
	v := &vrpdEdit{progs: [][]byte{[]byte(cur)}}
	r := rng{s: uint64(seed)}
	kernels := r.perm(gcfg.Funcs)
	// The first request is always an edit: a repeat needs something to
	// repeat besides the base program the session starts with.
	repeatAt := map[int]bool{}
	for _, i := range r.perm(gcfg.Funcs + sessionRepeats - 1)[:sessionRepeats] {
		repeatAt[i+1] = true
	}
	var edits []int
	for i := 0; i < gcfg.Funcs+sessionRepeats; i++ {
		if repeatAt[i] {
			v.reqs = append(v.reqs, vrpdRequest{prog: r.intn(len(v.progs))})
			continue
		}
		next, ok := genprog.EditFunc(cur, kernels[len(edits)], int64(r.intn(9)+1))
		if !ok {
			return nil, fmt.Errorf("edit %d: no kernel f%d", i, kernels[len(edits)])
		}
		cur = next
		v.progs = append(v.progs, []byte(cur))
		v.reqs = append(v.reqs, vrpdRequest{prog: len(v.progs) - 1, edit: true})
		edits = append(edits, i)
	}
	for _, src := range v.progs {
		p, err := vrp.Compile("request.mini", string(src))
		if err != nil {
			return nil, err
		}
		v.instrs = append(v.instrs, p.IR.NumInstrs())
	}

	baseBody := v.startSession()
	first := map[int][]byte{0: baseBody}
	for _, req := range v.reqs {
		status, body := post(v.srv.Handler(), v.progs[req.prog])
		v.ref = append(v.ref, body)
		v.expect(status == http.StatusOK)
		if f, ok := first[req.prog]; ok {
			v.expect(bytes.Equal(body, f))
		} else {
			first[req.prog] = body
		}
	}
	cold := server.New(serverConfig(true)).Handler()
	pick := r.perm(len(edits))
	for _, e := range pick[:min(coldChecks, len(pick))] {
		i := edits[e]
		status, body := post(cold, v.progs[v.reqs[i].prog])
		v.expect(status == http.StatusOK && bytes.Equal(body, v.ref[i]))
	}
	if err := v.scoreBase(baseBody); err != nil {
		return nil, err
	}
	v.srv = nil // the timed phase starts each session on a fresh server
	return v, nil
}

func (v *vrpdEdit) expect(ok bool) {
	v.checks++
	if !ok {
		v.bad++
	}
}

// scoreBase computes the workload's quality metrics on the base program,
// after checking that the server's predictions for it equal the
// library's.
func (v *vrpdEdit) scoreBase(body []byte) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("base response: %w", err)
	}
	p, err := vrp.Compile("request.mini", string(v.progs[0]))
	if err != nil {
		return err
	}
	a, err := p.Analyze(vrp.WithWorkers(1))
	if err != nil {
		return err
	}
	preds := a.Predictions()
	same := len(preds) == len(resp.Predictions)
	for i := 0; same && i < len(preds); i++ {
		got, want := resp.Predictions[i], preds[i]
		same = got.Func == want.Func && got.Line == want.Pos.Line && got.Col == want.Pos.Col &&
			got.Prob == want.Prob && got.Source == want.Source
	}
	v.expect(same)
	prof, err := p.RunWith(nil, interp.Options{MaxSteps: 4 << 20})
	if err != nil {
		return err
	}
	v.q = scoreAll([]*bench.ProgramEval{score(p.IR, a.Result, prof)})
	return nil
}

// startSession replaces the server with a fresh one seeded with the base
// program and returns the seeding response.
func (v *vrpdEdit) startSession() []byte {
	v.srv = server.New(serverConfig(false))
	v.i = 0
	_, body := post(v.srv.Handler(), v.progs[0])
	return body
}

func (v *vrpdEdit) prepare() {
	if v.srv == nil || v.i == len(v.reqs) {
		v.startSession()
	}
}

func (v *vrpdEdit) op() int {
	req := v.reqs[v.i]
	v.status, v.body = post(v.srv.Handler(), v.progs[req.prog])
	return v.instrs[req.prog]
}

func (v *vrpdEdit) check() bool {
	ok := v.status == http.StatusOK && bytes.Equal(v.body, v.ref[v.i])
	v.i++
	return ok
}

func (v *vrpdEdit) idle() bool { return v.srv != nil && v.i == len(v.reqs) }

func (v *vrpdEdit) setupChecks() (int, int) { return v.checks, v.bad }

func (v *vrpdEdit) quality() quality { return v.q }

func (v *vrpdEdit) corrupt() {
	v.ref[0] = append([]byte(nil), v.ref[0]...)
	v.ref[0][0] ^= 1
}

// trace replays one session through the handler on a fresh server,
// timing each request, then runs the layers stand-alone on each edit's
// source, once for CPU time and counts and once for allocated bytes. The
// stand-alone layers use a store that has seen what the server's
// funcstore had, so they splice what the server spliced. server.cpu_ms is
// the handlers' CPU time minus those layers (callgraph excepted:
// corevrp.Analyze builds its own, so the vrp layer already covers it); a
// repeat request is all server.
func (v *vrpdEdit) trace() (metrics, error) {
	cpu, mem := newLayerTrace(false), newLayerTrace(true)
	v.startSession()
	before := scrape(v.srv)
	for i, req := range v.reqs {
		c0 := cpuNow()
		status, body := post(v.srv.Handler(), v.progs[req.prog])
		cpu.total += cpuNow() - c0
		if status != http.StatusOK || !bytes.Equal(body, v.ref[i]) {
			return nil, fmt.Errorf("request %d: traced response differs from the reference", i)
		}
	}
	after := scrape(v.srv)
	for _, t := range []*layerTrace{cpu, mem} {
		store := funcStore{}
		if _, err := newLayerTrace(false).pipeline("request.mini", string(v.progs[0]), store, true); err != nil {
			return nil, err
		}
		for _, req := range v.reqs {
			if !req.edit {
				continue
			}
			if _, err := t.pipeline("request.mini", string(v.progs[req.prog]), store, true); err != nil {
				return nil, err
			}
		}
		t.ops = len(v.reqs)
	}

	layers := time.Duration(0)
	for _, l := range pipelineLayers {
		if l != "callgraph" {
			layers += cpu.cpu[l]
		}
	}
	cpu.cpu["server"] = cpu.total - layers
	cpu.storeHits, cpu.storeMiss = delta(before, after, "vrpd_funcstore_hits_total"), delta(before, after, "vrpd_funcstore_misses_total")
	cpu.cacheHits, cpu.cacheMiss = delta(before, after, "vrpd_cache_hits_total"), delta(before, after, "vrpd_cache_misses_total")
	return cpu.metrics(mem, cpu), nil
}

// scrape reads every unlabelled sample of the server's /metrics.
func scrape(s *server.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	s.Metrics().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out
}

func delta(before, after map[string]float64, name string) int64 {
	return int64(after[name] - before[name])
}

// funcStore is an unbounded corevrp.FuncStore with the server store's
// confirm-on-hit discipline: fingerprints locate, FuncKey.SameKey
// confirms.
type funcStore map[[3]uint64][]storedFunc

type storedFunc struct {
	key *corevrp.FuncKey
	sf  *corevrp.StoredFunc
}

func (s funcStore) Lookup(k *corevrp.FuncKey) (*corevrp.StoredFunc, bool) {
	for _, e := range s[[3]uint64{k.BodyFP, k.InputFP, k.ConfigFP}] {
		if e.key.SameKey(k) {
			return e.sf, true
		}
	}
	return nil, false
}

func (s funcStore) Store(k *corevrp.FuncKey, sf *corevrp.StoredFunc) {
	fp := [3]uint64{k.BodyFP, k.InputFP, k.ConfigFP}
	for i, e := range s[fp] {
		if e.key.SameKey(k) {
			s[fp][i].sf = sf
			return
		}
	}
	s[fp] = append(s[fp], storedFunc{k, sf})
}
