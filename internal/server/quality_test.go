package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"vrp/internal/genprog"
)

// TestQualityEndpoint drives one analysis through the server and checks
// /debug/vrpd/quality serves its digest: one row, the full quality
// object, and a stable JSON shape (the golden key set guards the wire
// format the same way the response-schema tests do).
func TestQualityEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t)); rec.Code != http.StatusOK {
		t.Fatalf("analyze status = %d", rec.Code)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vrpd/quality", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vrpd/quality = %d, body %s", rec.Code, rec.Body.String())
	}
	var idx struct {
		Count    int `json:"count"`
		Requests []struct {
			ID      string                     `json:"id"`
			Outcome string                     `json:"outcome"`
			Quality map[string]json.RawMessage `json:"quality"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatalf("quality index is not valid JSON: %v", err)
	}
	if idx.Count != 1 || len(idx.Requests) != 1 {
		t.Fatalf("quality index count = %d (%d rows), want 1", idx.Count, len(idx.Requests))
	}
	row := idx.Requests[0]
	if row.ID == "" || row.Outcome != "ok" {
		t.Errorf("quality row incomplete: %+v", row)
	}
	var keys []string
	for k := range row.Quality {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "branches,certain,certain_ratio,classes,confidence,evidence,funcs,loss,mean_log2_width,stale_certain,width"
	if got := strings.Join(keys, ","); got != want {
		t.Errorf("quality JSON keys = %s, want %s", got, want)
	}
	var branches int64
	if err := json.Unmarshal(row.Quality["branches"], &branches); err != nil || branches == 0 {
		t.Errorf("quality row has no branches: %s (err %v)", row.Quality["branches"], err)
	}

	// Method and disabled-recorder guards, matching the other debug routes.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/vrpd/quality", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/vrpd/quality = %d, want 405", rec.Code)
	}
	off, _ := newTestServer(t, func(c *Config) { c.RecorderEntries = -1 })
	rec = httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vrpd/quality", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("disabled recorder /debug/vrpd/quality = %d, want 404", rec.Code)
	}
}

// TestQualityMetricsExported checks the /metrics surface: after one
// analysis every vrpd_quality_* family reports, and the cumulative
// counters line up with the digest the recorder retained.
func TestQualityMetricsExported(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if rec := postAnalyze(t, srv.Handler(), "/v1/analyze", exampleSource(t)); rec.Code != http.StatusOK {
		t.Fatalf("analyze status = %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, name := range []string{
		"vrpd_quality_branches_total",
		"vrpd_quality_certain_total",
		"vrpd_quality_stale_certain_total",
		"vrpd_quality_certain_ratio",
		"vrpd_quality_mean_log2_width",
		"vrpd_quality_confidence_total",
		"vrpd_quality_evidence_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// qualityDigest returns the quality object of the newest row in
// /debug/vrpd/quality, as served.
func qualityDigest(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vrpd/quality", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vrpd/quality = %d", rec.Code)
	}
	var idx struct {
		Requests []struct {
			Quality json.RawMessage `json:"quality"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil || len(idx.Requests) == 0 {
		t.Fatalf("quality index has no rows (err %v): %s", err, rec.Body.String())
	}
	return string(idx.Requests[0].Quality)
}

// TestWarmServerQualityMatchesCold: a warm server splices every clean
// function of an edited program from its per-function store, and the
// quality digest it records — precision-loss ledger included — must be
// the one a store-free server computes by running every engine.
func TestWarmServerQualityMatchesCold(t *testing.T) {
	warm, _ := newTestServer(t, nil)
	cold, _ := newTestServer(t, func(c *Config) { c.FuncStoreEntries = -1 })

	base := genprog.Source(genprog.Default())
	if rec := postAnalyze(t, warm.Handler(), "/v1/analyze", base); rec.Code != http.StatusOK {
		t.Fatalf("base status = %d", rec.Code)
	}
	edited := editedProgram(t, base, 5, 123)
	if rec := postAnalyze(t, warm.Handler(), "/v1/analyze", edited); rec.Code != http.StatusOK {
		t.Fatalf("warm status = %d", rec.Code)
	}
	if rec := postAnalyze(t, cold.Handler(), "/v1/analyze", edited); rec.Code != http.StatusOK {
		t.Fatalf("cold status = %d", rec.Code)
	}
	if scrape(t, warm.Handler())["vrpd_funcstore_hits_total"] == 0 {
		t.Fatal("the warm server spliced nothing")
	}
	if w, c := qualityDigest(t, warm.Handler()), qualityDigest(t, cold.Handler()); w != c {
		t.Errorf("warm quality digest differs from cold:\nwarm: %s\ncold: %s", w, c)
	}
}
