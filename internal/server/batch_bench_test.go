package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vrp/internal/genprog"
)

// BenchmarkAnalyzeBatch measures the batch pipeline against the same
// programs POSTed one by one. Two servers start equally warm: each has
// analyzed genprog's default program. Every iteration builds 16 fresh
// single-kernel edits, sends them as one /v1/analyze-batch to the first
// server and as 16 /v1/analyze requests to the second. Both servers thus
// see the same function-store history, and every batch item must be
// byte-identical to its single response. batch-ms/op and seq-ms/op are
// the two sides' wall time per iteration.
func BenchmarkAnalyzeBatch(b *testing.B) {
	const items = 16
	cfg := genprog.Default()
	base := genprog.Source(cfg)
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	warm := func() http.Handler {
		h := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
		if rec := post(h, "/v1/analyze", []byte(base)); rec.Code != http.StatusOK {
			b.Fatalf("warm-up status = %d: %s", rec.Code, rec.Body.String())
		}
		return h
	}
	batchSrv, seqSrv := warm(), warm()

	var batchWall, seqWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		programs := make([]string, items)
		for j := range programs {
			v := i*items + j
			src, ok := genprog.EditFunc(base, v%cfg.Funcs, int64(v+1))
			if !ok {
				b.Fatalf("EditFunc(%d) failed", v%cfg.Funcs)
			}
			programs[j] = src
		}
		blob, err := json.Marshal(&batchRequest{Programs: programs})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		t0 := time.Now()
		batchRec := post(batchSrv, "/v1/analyze-batch", blob)
		batchWall += time.Since(t0)
		t0 = time.Now()
		singles := make([]*httptest.ResponseRecorder, items)
		for j, p := range programs {
			singles[j] = post(seqSrv, "/v1/analyze", []byte(p))
		}
		seqWall += time.Since(t0)

		b.StopTimer()
		if batchRec.Code != http.StatusOK {
			b.Fatalf("batch status = %d: %s", batchRec.Code, batchRec.Body.String())
		}
		var br batchResponse
		if err := json.Unmarshal(batchRec.Body.Bytes(), &br); err != nil {
			b.Fatal(err)
		}
		for j, single := range singles {
			item := br.Results[j]
			want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
			if item.Status != single.Code || !bytes.Equal(item.Body, want) {
				b.Fatalf("iteration %d item %d: batch (%d) %.200s\nsingle (%d) %.200s",
					i, j, item.Status, item.Body, single.Code, strings.TrimSpace(single.Body.String()))
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(batchWall.Microseconds())/1e3/float64(b.N), "batch-ms/op")
	b.ReportMetric(float64(seqWall.Microseconds())/1e3/float64(b.N), "seq-ms/op")
}
