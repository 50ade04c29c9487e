package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vrp/internal/genprog"
)

// compileCacheServers returns a server warmed with the genprog default
// program, a cold server (no result cache, no funcstore, hence no
// compile cache) and the program.
func compileCacheServers(t *testing.T) (warm, cold *Server, base string) {
	t.Helper()
	warm, _ = newTestServer(t, nil)
	cold, _ = newTestServer(t, func(c *Config) { c.CacheEntries, c.FuncStoreEntries = -1, -1 })
	if warm.units == nil || cold.units != nil {
		t.Fatal("a server must have a compile cache exactly when it has a funcstore")
	}
	base = genprog.Source(genprog.Default())
	if rec := postAnalyze(t, warm.Handler(), "/v1/analyze", base); rec.Code != http.StatusOK {
		t.Fatalf("base status = %d: %s", rec.Code, rec.Body.String())
	}
	return warm, cold, base
}

// postWarmCold posts src to both servers and requires the same status
// and body; it returns the status and how many function units the warm
// server's compile cache compiled.
func postWarmCold(t *testing.T, warm, cold *Server, src string) (status int, compiled int64) {
	t.Helper()
	_, m0 := warm.units.Stats()
	w := postAnalyze(t, warm.Handler(), "/v1/analyze", src)
	_, m1 := warm.units.Stats()
	c := postAnalyze(t, cold.Handler(), "/v1/analyze", src)
	if w.Code != c.Code || !bytes.Equal(w.Body.Bytes(), c.Body.Bytes()) {
		t.Errorf("warm answer differs from cold:\nwarm %d: %.400s\ncold %d: %.400s",
			w.Code, w.Body.String(), c.Code, c.Body.String())
	}
	return w.Code, m1 - m0
}

// replaceOnce replaces the one occurrence of old in s.
func replaceOnce(t *testing.T, s, old, new string) string {
	t.Helper()
	if n := strings.Count(s, old); n != 1 {
		t.Fatalf("%q occurs %d times, want once", old, n)
	}
	return strings.Replace(s, old, new, 1)
}

// TestCompileCacheEditCompilesOneUnit: a one-kernel edit inserts a line,
// moving every later function down one line; the warm server compiles
// that kernel only and answers byte for byte as a cold server, also when
// asked to explain a branch of a moved function.
func TestCompileCacheEditCompilesOneUnit(t *testing.T) {
	warm, cold, base := compileCacheServers(t)
	h0, _ := warm.units.Stats()
	status, compiled := postWarmCold(t, warm, cold, editedProgram(t, base, 7, 3))
	h1, _ := warm.units.Stats()
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if funcs := int64(genprog.Default().Funcs + 1); compiled != 1 || h1-h0 != funcs-1 {
		t.Errorf("the edit compiled %d units and reused %d, want 1 and %d", compiled, h1-h0, funcs-1)
	}
	hits, misses := warm.units.Stats()
	if m := scrape(t, warm.Handler()); m["vrpd_unitcache_hits_total"] != float64(hits) || m["vrpd_unitcache_misses_total"] != float64(misses) {
		t.Errorf("/metrics unit hits, misses = %v, %v, want %d, %d",
			m["vrpd_unitcache_hits_total"], m["vrpd_unitcache_misses_total"], hits, misses)
	}

	// Explaining a branch of a function the edit moved down finds it at
	// its new line and prints that line.
	edited := editedProgram(t, base, 7, 3)
	fn := strings.Index(edited, "func f20(")
	line := strings.Count(edited[:fn+strings.Index(edited[fn:], "if (")], "\n") + 1
	path := fmt.Sprintf("/v1/analyze?explain=f20:%d", line)
	w := postAnalyze(t, warm.Handler(), path, edited)
	c := postAnalyze(t, cold.Handler(), path, edited)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), c.Body.Bytes()) {
		t.Errorf("explain: warm %d differs from cold %d:\nwarm: %.300s\ncold: %.300s", w.Code, c.Code, w.Body.String(), c.Body.String())
	}
	if !strings.Contains(w.Body.String(), fmt.Sprintf("f20:%d:", line)) {
		t.Errorf("explanation does not name line %d: %.300s", line, w.Body.String())
	}
}

// TestCompileCacheSignatureChanges: the signature table is part of every
// unit's key, so a changed arity or a renamed function recompiles the
// program, and a call that no longer matches its callee is the cold
// server's compile error.
func TestCompileCacheSignatureChanges(t *testing.T) {
	warm, cold, base := compileCacheServers(t)
	funcs := int64(genprog.Default().Funcs + 1)
	for _, tc := range []struct {
		name   string
		edit   func(string) string
		status int
	}{
		{"callee arity", func(s string) string {
			s = replaceOnce(t, s, "func f3(a, b) {", "func f3(a, b, c) {")
			s = replaceOnce(t, s, "f3(x, 3)", "f3(x, 3, y)")
			return replaceOnce(t, s, "f3(t, s % 3)", "f3(t, s % 3, s)")
		}, http.StatusOK},
		{"callee arity without its call", func(s string) string {
			return replaceOnce(t, s, "func f5(a, b) {", "func f5(a) {")
		}, http.StatusUnprocessableEntity},
		{"renamed function", func(s string) string {
			s = replaceOnce(t, s, "func f9(a, b) {", "func g9(a, b) {")
			return replaceOnce(t, s, "f9(t, s % 2)", "g9(t, s % 2)")
		}, http.StatusOK},
		{"renamed function without its call", func(s string) string {
			return replaceOnce(t, s, "func f11(a, b) {", "func g11(a, b) {")
		}, http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, compiled := postWarmCold(t, warm, cold, tc.edit(base))
			if status != tc.status {
				t.Fatalf("status = %d, want %d", status, tc.status)
			}
			if status == http.StatusOK && compiled != funcs {
				t.Errorf("compiled %d units, want all %d", compiled, funcs)
			}
		})
	}
}

// TestCompileCacheColumnKey: with two functions on one line, an edit of
// the first moves the second one's columns but not its text; the start
// column is part of the key, so the second is recompiled and its
// predictions keep their columns.
func TestCompileCacheColumnKey(t *testing.T) {
	warm, cold, _ := compileCacheServers(t)
	const second = "func main() { var x = input(); if (h(x) > 1) { print(x); } }\n"
	if status, _ := postWarmCold(t, warm, cold, "func h(a) { if (a < 3) { return 1; } return 2; } "+second); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	status, compiled := postWarmCold(t, warm, cold, "func h(a) { if (a <= 3) { return 1; } return 2; } "+second)
	if status != http.StatusOK || compiled != 2 {
		t.Errorf("status = %d, compiled %d units; want 200 and both", status, compiled)
	}
}

// TestCompileCacheErrorFallback: a source the cache cannot compile is
// compiled whole, so each error body is the cold server's byte for byte:
// a syntax or a semantic error inside the edited unit, and unbalanced
// braces that spill into the next unit or out of the last one.
func TestCompileCacheErrorFallback(t *testing.T) {
	warm, cold, base := compileCacheServers(t)
	for _, tc := range []struct{ name, old, new string }{
		{"syntax error", "func f7(a, b) {\n\tvar x = a", "func f7(a, b) {\n\tvar x = = a"},
		{"undeclared variable", "func f7(a, b) {\n\tvar x = a", "func f7(a, b) {\n\tvar x = q"},
		{"missing brace", "}\nfunc f8(a, b) {", "\nfunc f8(a, b) {"},
		{"extra brace", "}\nfunc f8(a, b) {", "}}\nfunc f8(a, b) {"},
		{"unclosed last function", "func main() {", "func main() { {"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := postWarmCold(t, warm, cold, replaceOnce(t, base, tc.old, tc.new))
			if status != http.StatusUnprocessableEntity {
				t.Errorf("status = %d, want %d", status, http.StatusUnprocessableEntity)
			}
		})
	}
	// The cache still serves the program after the failed compiles.
	if status, compiled := postWarmCold(t, warm, cold, editedProgram(t, base, 2, 4)); status != http.StatusOK || compiled != 1 {
		t.Errorf("status = %d, compiled %d units after the errors; want 200 and 1", status, compiled)
	}
}

// TestCompileCacheConcurrentEdits: edits of distinct kernels posted at
// once to a warm server, /v1/analyze and batch items mixed, share one
// compile cache and each answers as a cold server (run under -race this
// also exercises the cache's locking).
func TestCompileCacheConcurrentEdits(t *testing.T) {
	warm, cold, base := compileCacheServers(t)
	const n = 4
	srcs := make([]string, n)
	bodies := make([][]byte, n)
	for i := range srcs {
		srcs[i] = editedProgram(t, base, 10+i, int64(i+1))
	}
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				rec := httptest.NewRecorder()
				warm.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(srcs[i])))
				if rec.Code == http.StatusOK {
					bodies[i] = rec.Body.Bytes()
				}
				return
			}
			var br batchResponse
			rec := postBatch(t, warm.Handler(), srcs[i:i+1])
			if json.Unmarshal(rec.Body.Bytes(), &br) == nil && len(br.Results) == 1 && br.Results[0].Status == http.StatusOK {
				bodies[i] = append(br.Results[0].Body, '\n')
			}
		}(i)
	}
	wg.Wait()
	for i, src := range srcs {
		c := postAnalyze(t, cold.Handler(), "/v1/analyze", src)
		if bodies[i] == nil || c.Code != http.StatusOK {
			t.Fatalf("edit %d: warm body %v, cold status %d", i, bodies[i] != nil, c.Code)
		}
		if !bytes.Equal(bodies[i], c.Body.Bytes()) {
			t.Errorf("edit %d: warm body differs from cold", i)
		}
	}
	// Each edit reverts the kernels the others edited, so it compiles its
	// own kernel and at most those.
	if _, misses := warm.units.Stats(); misses-int64(genprog.Default().Funcs+1) > n*n {
		t.Errorf("the %d edits compiled %d units, want at most %d", n, misses-int64(genprog.Default().Funcs+1), n*n)
	}
}
