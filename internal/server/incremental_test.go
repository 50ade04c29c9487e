package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"vrp/internal/genprog"
	corevrp "vrp/internal/vrp"
)

// ------------------------------------------------- response cache unit

// TestResultCacheCollisionConfirm: the cache must confirm the stored
// source on every hit. Before the confirm existed, get(key) on a
// colliding key returned the other program's body.
func TestResultCacheCollisionConfirm(t *testing.T) {
	c := newResultCache(4)
	srcA, bodyA := []byte("program A"), []byte(`{"a":1}`)
	srcB, bodyB := []byte("program B"), []byte(`{"b":2}`)

	if evicted, collided := c.put(42, srcA, bodyA); evicted != 0 || collided {
		t.Fatalf("first put: evicted=%d collided=%v", evicted, collided)
	}

	// Same fingerprint, different source: must NOT serve A's body.
	body, ok, collided := c.get(42, srcB)
	if ok || body != nil {
		t.Fatalf("colliding get served body %q", body)
	}
	if !collided {
		t.Fatal("colliding get not reported as a collision")
	}

	// The rightful owner still hits.
	body, ok, collided = c.get(42, srcA)
	if !ok || collided || !bytes.Equal(body, bodyA) {
		t.Fatalf("owner get = (%q, %v, %v)", body, ok, collided)
	}

	// A colliding put takes over the slot, reported as a collision.
	if _, collided := c.put(42, srcB, bodyB); !collided {
		t.Fatal("colliding put not reported")
	}
	if body, ok, _ := c.get(42, srcB); !ok || !bytes.Equal(body, bodyB) {
		t.Fatalf("after colliding put, B gets (%q, %v)", body, ok)
	}
	if _, ok, collided := c.get(42, srcA); ok || !collided {
		t.Fatalf("after colliding put, A gets ok=%v collided=%v", ok, collided)
	}

	// Same-source re-put keeps the first body (determinism makes them
	// equal; the first stays authoritative).
	if _, collided := c.put(42, srcB, []byte("later")); collided {
		t.Fatal("same-source re-put reported as collision")
	}
	if body, _, _ := c.get(42, srcB); !bytes.Equal(body, bodyB) {
		t.Fatalf("re-put replaced body: %q", body)
	}
}

// TestCacheCollisionEndToEnd forces every request onto one fingerprint
// via the test hook and proves colliding programs each get their own
// correct analysis. On the pre-confirm code the second program was
// served the first program's cached body.
func TestCacheCollisionEndToEnd(t *testing.T) {
	testHookHashSource = func([]byte) (uint64, bool) { return 0xDEAD, true }
	defer func() { testHookHashSource = nil }()

	srv, _ := newTestServer(t, nil)
	progA := "func main() { var x = input(); if (x < 10) { print(1); } print(2); }"
	progB := "func main() { print(3); }"

	recA := postAnalyze(t, srv.Handler(), "/v1/analyze", progA)
	recB := postAnalyze(t, srv.Handler(), "/v1/analyze", progB)
	if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
		t.Fatalf("status A=%d B=%d", recA.Code, recB.Code)
	}
	if bytes.Equal(recA.Body.Bytes(), recB.Body.Bytes()) {
		t.Fatal("colliding programs returned the same body")
	}
	var respB AnalyzeResponse
	if err := json.Unmarshal(recB.Body.Bytes(), &respB); err != nil {
		t.Fatal(err)
	}
	if len(respB.Predictions) != 0 {
		t.Errorf("branchless program got %d predictions — served the wrong program's analysis", len(respB.Predictions))
	}

	// Repeat requests stay correct (B owns the slot now, A re-analyzes).
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", progB); !bytes.Equal(rec.Body.Bytes(), recB.Body.Bytes()) {
		t.Error("B's repeat body changed")
	}
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", progA); !bytes.Equal(rec.Body.Bytes(), recA.Body.Bytes()) {
		t.Error("A's repeat body changed")
	}

	m := scrape(t, srv.Handler())
	if m["vrpd_cache_collisions_total"] < 1 {
		t.Errorf("vrpd_cache_collisions_total = %v, want >= 1", m["vrpd_cache_collisions_total"])
	}
}

// --------------------------------------------------- funcstore (server)

// TestFuncStoreCollisionReplaces: handcrafted keys sharing one
// fingerprint triple are each confirmed before being served. A colliding
// key is never served the other key's record, and a colliding store
// replaces the entry, so only the newer key hits.
func TestFuncStoreCollisionReplaces(t *testing.T) {
	m := newServerMetrics(time.Now(), 0)
	fs := newFuncStore(8, m)
	keyA := &corevrp.FuncKey{BodyFP: 7, InputFP: 7, ConfigFP: 7, Body: []byte("body A")}
	keyB := &corevrp.FuncKey{BodyFP: 7, InputFP: 7, ConfigFP: 7, Body: []byte("body B")}
	sfA := &corevrp.StoredFunc{Effort: corevrp.Effort{SubOps: 1}}
	sfB := &corevrp.StoredFunc{Effort: corevrp.Effort{SubOps: 2}}

	fs.Store(keyA, sfA)
	if got, ok := fs.Lookup(keyB); ok || got != nil {
		t.Fatalf("colliding lookup served (%v, %v)", got, ok)
	}
	fs.Store(keyB, sfB)
	if n := fs.entries.Len(); n != 1 {
		t.Fatalf("entries = %d, want 1 (a colliding store replaces)", n)
	}
	if got, ok := fs.Lookup(keyA); ok || got != nil {
		t.Fatalf("replaced key A lookup = (%v, %v), want a miss", got, ok)
	}
	if got, ok := fs.Lookup(keyB); !ok || got != sfB {
		t.Fatalf("B lookup = (%v, %v)", got, ok)
	}
	// A same-key store keeps the first record.
	fs.Store(keyB, &corevrp.StoredFunc{})
	if got, _ := fs.Lookup(keyB); got != sfB {
		t.Fatalf("same-key store replaced the record: %v", got)
	}
	// Collisions: A's lookup before B's store, B's colliding store, A's
	// lookup after it.
	if c := m.funcstoreCollisions.Value(); c != 3 {
		t.Errorf("collisions = %d, want 3", c)
	}
	if h, mi := m.funcstoreHits.Value(), m.funcstoreMisses.Value(); h != 2 || mi != 2 {
		t.Errorf("hits, misses = %d, %d, want 2, 2", h, mi)
	}
}

// TestFuncStoreEvictionsCounted: a store capped by FuncStoreEntries
// holds that many records of a program an uncapped store holds more of,
// and counts every other record it stored as evicted.
func TestFuncStoreEvictionsCounted(t *testing.T) {
	const entries = 4
	src := genprog.Source(genCfg)
	stored := func(srv *Server) map[string]float64 {
		t.Helper()
		if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", src); rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		return scrape(t, srv.Handler())
	}
	uncapped, _ := newTestServer(t, nil)
	capped, _ := newTestServer(t, func(c *Config) { c.FuncStoreEntries = entries })
	all, m := stored(uncapped)["vrpd_funcstore_entries"], stored(capped)
	if all <= entries || m["vrpd_funcstore_entries"] != entries {
		t.Fatalf("entries: uncapped %v, capped %v (cap %d)", all, m["vrpd_funcstore_entries"], entries)
	}
	if got, want := m["vrpd_funcstore_evictions_total"], all-entries; got != want {
		t.Errorf("vrpd_funcstore_evictions_total = %v, want %v", got, want)
	}
}

// ------------------------------------------- incremental warm vs cold

var genCfg = genprog.Config{Seed: 9, Funcs: 10, Diamonds: 1, LoopDepth: 1}

func editedProgram(t *testing.T, base string, k int, delta int64) string {
	t.Helper()
	src, ok := genprog.EditFunc(base, k, delta)
	if !ok {
		t.Fatalf("EditFunc(%d) failed", k)
	}
	return src
}

// TestWarmServerBitIdentical: a server that has seen the base program
// serves a one-function edit by splicing stored per-function results —
// visible in the hit counter — and the response is byte-identical to
// what a store-free server computes from scratch.
func TestWarmServerBitIdentical(t *testing.T) {
	warm, _ := newTestServer(t, nil)
	cold, _ := newTestServer(t, func(c *Config) { c.FuncStoreEntries = -1 })

	base := genprog.Source(genCfg)
	if rec := postAnalyze(t, warm.Handler(), "/v1/analyze", base); rec.Code != http.StatusOK {
		t.Fatalf("base status = %d: %s", rec.Code, rec.Body.String())
	}
	h0 := scrape(t, warm.Handler())["vrpd_funcstore_hits_total"]

	edited := editedProgram(t, base, 4, 55)
	warmRec := postAnalyze(t, warm.Handler(), "/v1/analyze", edited)
	coldRec := postAnalyze(t, cold.Handler(), "/v1/analyze", edited)
	if warmRec.Code != http.StatusOK || coldRec.Code != http.StatusOK {
		t.Fatalf("status warm=%d cold=%d", warmRec.Code, coldRec.Code)
	}
	if !bytes.Equal(warmRec.Body.Bytes(), coldRec.Body.Bytes()) {
		t.Errorf("warm body differs from cold body:\nwarm: %s\ncold: %s",
			warmRec.Body.String(), coldRec.Body.String())
	}

	hits := scrape(t, warm.Handler())["vrpd_funcstore_hits_total"] - h0
	if want := float64(genCfg.Funcs - 1); hits < want {
		t.Errorf("funcstore hits for the edit = %v, want >= %v (one dirty function out of %d)",
			hits, want, genCfg.Funcs)
	}
}

// TestWarmServerUnconvergedTestdata: the committed program that CI's
// server smoke posts stops unconverged with stale-certain predictions,
// and its committed one-kernel edit, posted to a server warmed with it,
// answers byte-identical to a store-free server. Its spliced functions
// take their re-derived predictions from the store records.
func TestWarmServerUnconvergedTestdata(t *testing.T) {
	read := func(name string) string {
		src, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	base, edited := read("unconverged.mini"), read("unconverged-edit.mini")
	warm, _ := newTestServer(t, nil)
	cold, _ := newTestServer(t, func(c *Config) { c.FuncStoreEntries, c.CacheEntries = -1, -1 })

	baseRec := postAnalyze(t, warm.Handler(), "/v1/analyze", base)
	if baseRec.Code != http.StatusOK {
		t.Fatalf("base status = %d: %s", baseRec.Code, baseRec.Body.String())
	}
	h0 := scrape(t, warm.Handler())["vrpd_funcstore_hits_total"]
	warmRec := postAnalyze(t, warm.Handler(), "/v1/analyze", edited)
	coldRec := postAnalyze(t, cold.Handler(), "/v1/analyze", edited)
	if warmRec.Code != http.StatusOK || coldRec.Code != http.StatusOK {
		t.Fatalf("status warm=%d cold=%d", warmRec.Code, coldRec.Code)
	}
	if !bytes.Equal(warmRec.Body.Bytes(), coldRec.Body.Bytes()) {
		t.Errorf("warm body differs from cold body:\nwarm: %s\ncold: %s", warmRec.Body.String(), coldRec.Body.String())
	}
	for _, rec := range []*httptest.ResponseRecorder{baseRec, warmRec} {
		body := rec.Body.String()
		if !strings.Contains(body, `"converged":false`) || !strings.Contains(body, "stale range-certain") {
			t.Errorf("want an unconverged answer with re-derived stale predictions, got %.300s", body)
		}
	}
	if hits := scrape(t, warm.Handler())["vrpd_funcstore_hits_total"] - h0; hits == 0 {
		t.Error("the edit spliced nothing from the warm store")
	}
}

// TestWarmServerConcurrent: distinct single-function edits analyzed
// concurrently against one warm server all match a store-free server's
// answers (run under -race this also exercises store concurrency).
func TestWarmServerConcurrent(t *testing.T) {
	warm, _ := newTestServer(t, nil)
	cold, _ := newTestServer(t, func(c *Config) { c.FuncStoreEntries = -1 })

	base := genprog.Source(genCfg)
	if rec := postAnalyze(t, warm.Handler(), "/v1/analyze", base); rec.Code != http.StatusOK {
		t.Fatalf("base status = %d", rec.Code)
	}

	const workers = 6
	warmBodies := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := editedProgram(t, base, i%genCfg.Funcs, int64(100+i))
			rec := httptest.NewRecorder()
			warm.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(src)))
			if rec.Code == http.StatusOK {
				warmBodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if warmBodies[i] == nil {
			t.Fatalf("request %d failed", i)
		}
		src := editedProgram(t, base, i%genCfg.Funcs, int64(100+i))
		coldRec := postAnalyze(t, cold.Handler(), "/v1/analyze", src)
		if coldRec.Code != http.StatusOK {
			t.Fatalf("cold request %d status = %d", i, coldRec.Code)
		}
		if !bytes.Equal(warmBodies[i], coldRec.Body.Bytes()) {
			t.Errorf("request %d: warm body differs from cold", i)
		}
	}

	if hits := scrape(t, warm.Handler())["vrpd_funcstore_hits_total"]; hits == 0 {
		t.Error("concurrent warm requests recorded no funcstore hits")
	}
}

// ----------------------------------------------------- shed visibility

// TestShedLatencyObserved: a 429 load shed must appear in the analyze
// latency histogram. Before the fix, timing started after semaphore
// acquisition, so shed requests were invisible and overload latency
// looked healthy.
func TestShedLatencyObserved(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.MaxInFlight = 1 })
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.testHookAnalyze = func() {
		once.Do(func() { close(started) })
		<-block
	}

	src := exampleSource(t)
	firstDone := make(chan int)
	go func() {
		firstDone <- postAnalyze(t, srv.Handler(), "/v1/analyze", src).Code
	}()
	<-started

	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", src); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", rec.Code)
	}
	close(block)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked request status = %d", code)
	}

	m := scrape(t, srv.Handler())
	if got := m["vrpd_analyze_duration_seconds_count"]; got != 2 {
		t.Errorf("latency observations = %v, want 2 (the 200 and the shed 429)", got)
	}
	if m["vrpd_requests_shed_total"] != 1 {
		t.Errorf("shed counter = %v, want 1", m["vrpd_requests_shed_total"])
	}
}

// ------------------------------------------------------------- batch

func postBatch(t *testing.T, h http.Handler, programs []string) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(map[string][]string{"programs": programs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze-batch", bytes.NewReader(blob)))
	return rec
}

// TestBatchByteIdenticalPerItem: every batch item's status and body
// match what /v1/analyze returns for the same program on an identically
// configured server.
func TestBatchByteIdenticalPerItem(t *testing.T) {
	batchSrv, _ := newTestServer(t, nil)
	singleSrv, _ := newTestServer(t, nil)

	good := "func main() { var x = input(); if (x < 5) { print(1); } print(0); }"
	bad := "func main( {"
	programs := []string{good, bad, "", good} // last one repeats: in-batch cache hit or re-analysis, same bytes either way

	rec := postBatch(t, batchSrv.Handler(), programs)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var br struct {
		Results []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(programs) {
		t.Fatalf("%d results, want %d", len(br.Results), len(programs))
	}
	for i, p := range programs {
		single := postAnalyze(t, singleSrv.Handler(), "/v1/analyze", p)
		if br.Results[i].Status != single.Code {
			t.Errorf("item %d status = %d, want %d", i, br.Results[i].Status, single.Code)
		}
		want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
		if !bytes.Equal(br.Results[i].Body, want) {
			t.Errorf("item %d body differs from /v1/analyze:\nbatch:  %s\nsingle: %s",
				i, br.Results[i].Body, want)
		}
	}

	m := scrape(t, batchSrv.Handler())
	if got := m["vrpd_batch_duration_seconds_count"]; got != 1 {
		t.Errorf("batch latency observations = %v, want 1", got)
	}
	if got := m[`vrpd_analyses_total{outcome="compile_error"}`]; got != 1 {
		t.Errorf("compile_error outcomes = %v, want 1", got)
	}
}

// TestBatchSharedCache: a batch item and a prior single request share
// the response cache.
func TestBatchSharedCache(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	src := exampleSource(t)

	single := postAnalyze(t, srv.Handler(), "/v1/analyze", src)
	if single.Code != http.StatusOK {
		t.Fatalf("single status = %d", single.Code)
	}
	rec := postBatch(t, srv.Handler(), []string{src})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d", rec.Code)
	}
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n")); !bytes.Equal(br.Results[0].Body, want) {
		t.Error("cached batch item differs from the single response")
	}
	m := scrape(t, srv.Handler())
	if m["vrpd_cache_hits_total"] != 1 {
		t.Errorf("cache hits = %v, want 1 (the batch item)", m["vrpd_cache_hits_total"])
	}
}

// TestBatchValidation: the envelope-level error paths.
func TestBatchValidation(t *testing.T) {
	srv, _ := newTestServer(t, nil)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/analyze-batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", rec.Code)
	}

	if rec := postBatch(t, srv.Handler(), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", rec.Code)
	}

	over := make([]string, MaxBatchPrograms+1)
	for i := range over {
		over[i] = "func main() { print(1); }"
	}
	if rec := postBatch(t, srv.Handler(), over); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze-batch", strings.NewReader("not json")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", rec.Code)
	}
}

// TestBatchOversizedItem: a single item beyond MaxSourceBytes fails with
// 413 in its slot without sinking the batch.
func TestBatchOversizedItem(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) { c.MaxSourceBytes = 128 })
	big := "func main() { print(1); } " + strings.Repeat("// padding\n", 30)
	rec := postBatch(t, srv.Handler(), []string{"func main() { print(1); }", big})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d", rec.Code)
	}
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Status != http.StatusOK {
		t.Errorf("item 0 status = %d, want 200", br.Results[0].Status)
	}
	if br.Results[1].Status != http.StatusRequestEntityTooLarge {
		t.Errorf("item 1 status = %d, want 413", br.Results[1].Status)
	}
}

// TestBatchWarmStore: a batch over single-function edits of an already
// seen program hits the per-function store.
func TestBatchWarmStore(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	base := genprog.Source(genCfg)
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", base); rec.Code != http.StatusOK {
		t.Fatalf("base status = %d", rec.Code)
	}
	h0 := scrape(t, srv.Handler())["vrpd_funcstore_hits_total"]

	programs := []string{
		editedProgram(t, base, 1, 11),
		editedProgram(t, base, 2, 22),
		editedProgram(t, base, 3, 33),
	}
	rec := postBatch(t, srv.Handler(), programs)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d", rec.Code)
	}
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			t.Errorf("item %d status = %d", i, res.Status)
		}
	}
	hits := scrape(t, srv.Handler())["vrpd_funcstore_hits_total"] - h0
	if want := float64(len(programs) * (genCfg.Funcs - 1)); hits < want {
		t.Errorf("batch funcstore hits = %v, want >= %v", hits, want)
	}
}

// TestTelemetryRequestUsesFuncStore: a ?telemetry=1 request bypasses the
// response cache but not the per-function store — splices replay their
// counters, so its snapshot stays faithful — and a repeat of a plain
// request's program must splice from the entries that request stored.
func TestTelemetryRequestUsesFuncStore(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	src := exampleSource(t)
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", src); rec.Code != http.StatusOK {
		t.Fatalf("plain status = %d", rec.Code)
	}
	h0 := scrape(t, srv.Handler())["vrpd_funcstore_hits_total"]
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze?telemetry=1", src); rec.Code != http.StatusOK {
		t.Fatalf("telemetry status = %d", rec.Code)
	}
	if h := scrape(t, srv.Handler())["vrpd_funcstore_hits_total"]; h <= h0 {
		t.Errorf("vrpd_funcstore_hits_total = %v after the telemetry request, want > %v", h, h0)
	}
}
