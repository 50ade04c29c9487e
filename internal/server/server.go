// Package server implements vrpd: an HTTP analysis service over the vrp
// facade with observability as the headline feature.
//
// Endpoints:
//
//	POST /v1/analyze   Mini source in the body → branch predictions,
//	                   diagnostics and engine stats as JSON.
//	                   ?explain=func:line adds the provenance chain of
//	                   one branch; ?telemetry=1 attaches the run's
//	                   counters snapshot and the request's span tree.
//	                   Both bypass the result cache.
//	POST /v1/analyze-batch
//	                   {"programs": ["src", ...]} → {"results": [{"status",
//	                   "body"}, ...]}, one entry per program in order; each
//	                   body is byte-identical to what /v1/analyze would
//	                   have returned. The batch holds one in-flight slot
//	                   and pipelines parse→SSA against VRP across items,
//	                   all sharing the warm caches.
//	GET  /metrics      Prometheus text exposition (internal/metrics).
//	GET  /healthz      liveness: 200 while the process runs.
//	GET  /readyz       readiness: 200 until Shutdown begins, then 503.
//	GET  /debug/vrpd/requests
//	                   flight-recorder index: the retained tail of recent
//	                   traffic (slowest, degraded, shed, sampled), newest
//	                   first; ?sort=slowest ranks by latency.
//	GET  /debug/vrpd/trace/{id}
//	                   one retained request's span tree as Chrome trace
//	                   JSON (opens in Perfetto / chrome://tracing).
//	GET  /debug/vrpd/quality
//	                   the prediction-quality digest of every retained
//	                   fresh analysis (flight-recorder rows), newest
//	                   first.
//	     /debug/pprof  the standard net/http/pprof handlers.
//
// Operational behaviour:
//
//   - Every request gets an X-Request-Id and one structured log/slog
//     record with method, path, status, duration and — for analyses —
//     the outcome, cache disposition and convergence.
//   - At most Config.MaxInFlight analyses run concurrently; excess
//     requests are shed immediately with 429 (and counted) instead of
//     queueing without bound.
//   - Results are cached in a bounded LRU keyed by the vrange.HashBytes
//     fingerprint of the source; the stored source is compared on every
//     hit (fingerprint collisions are counted misses, never another
//     program's body), and a hit returns the exact bytes of the
//     populating response.
//   - A per-function result store (funcstore.go) persists every
//     successful engine run keyed by body × interprocedural-input ×
//     config fingerprints with full-key confirmation, so a request that
//     edits one function of a previously seen program re-analyzes only
//     the dirty cone — bit-identical to a cold analysis. Alongside it a
//     per-function compile cache (internal/unitcache) keeps every
//     compiled function, so such a request compiles only the function
//     it changed; a source that does not compile is compiled whole, so
//     error bodies are a cold server's.
//   - Every analysis assembles its telemetry snapshot, whose totals are
//     folded into the /metrics registry, so a scrape shows lattice-level
//     health (steps, φ-merges, widens, intern and memo hit rates,
//     convergence) of live traffic. The deterministic counters include
//     the replayed work of functions spliced from the per-function
//     store, so a warm server reports the same work as a cold one.
//   - Shutdown flips /readyz to 503 and drains in-flight requests.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vrp"
	"vrp/internal/telemetry"
	"vrp/internal/unitcache"
	"vrp/internal/vrange"
)

// Config controls a Server. The zero value is usable: it binds nothing
// (callers pass a listener), serves with the defaults below, and logs
// through slog.Default().
type Config struct {
	// MaxInFlight bounds concurrently served analyses; excess requests
	// are shed with 429. 0 means DefaultMaxInFlight.
	MaxInFlight int

	// MaxSourceBytes bounds the accepted request body. 0 means
	// DefaultMaxSourceBytes.
	MaxSourceBytes int64

	// CacheEntries bounds the result cache; negative disables caching,
	// 0 means DefaultCacheEntries.
	CacheEntries int

	// FuncStoreEntries bounds the entries of the cross-request
	// per-function result store; negative disables it, 0 means
	// DefaultFuncStoreEntries. The server has a per-function compile
	// cache exactly when it has the store.
	FuncStoreEntries int

	// AnalyzeTimeout cancels one analysis after this long (the request
	// fails with 503 and a cancelled outcome). 0 disables the timeout.
	AnalyzeTimeout time.Duration

	// Workers is passed through to vrp.WithWorkers: per-analysis engine
	// parallelism. 0 picks one worker per CPU.
	Workers int

	// SLOLatency is the per-request latency target behind the vrpd_slo_*
	// burn gauges: requests slower than this count as over-target. 0
	// means DefaultSLOLatency; negative disables SLO tracking (the burn
	// gauges stay at 0).
	SLOLatency time.Duration

	// RecorderEntries bounds the flight recorder's retained requests;
	// negative disables the recorder (its endpoints 404), 0 means
	// DefaultRecorderEntries.
	RecorderEntries int

	// Logger receives the structured request log. nil means
	// slog.Default().
	Logger *slog.Logger
}

// Defaults for the zero Config.
const (
	DefaultMaxInFlight    = 16
	DefaultMaxSourceBytes = 1 << 20
	DefaultCacheEntries   = 256
	DefaultSLOLatency     = 250 * time.Millisecond
)

// Server is the vrpd HTTP service. Create with New, serve with
// ListenAndServe or Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	log      *slog.Logger
	m        *serverMetrics
	cache    *resultCache
	fstore   *funcStore
	units    *unitcache.Cache // per-function compile cache; nil exactly when fstore is
	recorder *flightRecorder
	sem      chan struct{}

	mux      *http.ServeMux
	http     *http.Server
	draining atomic.Bool
	reqSeq   atomic.Int64
	idPrefix string

	// testHookAnalyze, when non-nil, runs after the request body is read
	// and before VRP starts (after prepare on /v1/analyze, before the
	// pipeline on a batch). Test-only: the drain and load-shedding tests
	// use it to hold a request in flight.
	testHookAnalyze func()
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.FuncStoreEntries == 0 {
		cfg.FuncStoreEntries = DefaultFuncStoreEntries
	}
	if cfg.RecorderEntries == 0 {
		cfg.RecorderEntries = DefaultRecorderEntries
	}
	if cfg.SLOLatency == 0 {
		cfg.SLOLatency = DefaultSLOLatency
	}
	sloTarget := cfg.SLOLatency.Seconds()
	if sloTarget < 0 {
		sloTarget = 0 // negative = SLO tracking disabled
	}
	lg := cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	start := time.Now()
	m := newServerMetrics(start, sloTarget)
	s := &Server{
		cfg:      cfg,
		log:      lg,
		m:        m,
		cache:    newResultCache(cfg.CacheEntries),
		fstore:   newFuncStore(cfg.FuncStoreEntries, m),
		recorder: newFlightRecorder(cfg.RecorderEntries, DefaultRecorderSlowK, DefaultRecorderSampleN),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		mux:      http.NewServeMux(),
		idPrefix: strconv.FormatInt(start.UnixNano()&0xfffffff, 36),
	}
	if s.fstore != nil {
		s.units = unitcache.New()
		m.reg.GaugeFunc("vrpd_funcstore_entries", "Entries resident in the per-function result store.",
			func() float64 { return float64(s.fstore.entries.Len()) })
		m.reg.CounterFunc("vrpd_unitcache_hits_total", "Functions the per-function compile cache served compiled.",
			func() float64 { h, _ := s.units.Stats(); return float64(h) })
		m.reg.CounterFunc("vrpd_unitcache_misses_total", "Functions the per-function compile cache compiled, of sources it could split into functions.",
			func() float64 { _, mi := s.units.Stats(); return float64(mi) })
	}
	if s.recorder != nil {
		m.reg.GaugeFunc("vrpd_recorder_entries", "Requests currently retained by the flight recorder.",
			func() float64 { return float64(s.recorder.len()) })
	}
	s.mux.Handle("/v1/analyze", s.instrument("/v1/analyze", s.handleAnalyze))
	s.mux.Handle("/v1/analyze-batch", s.instrument("/v1/analyze-batch", s.handleAnalyzeBatch))
	s.mux.Handle("/metrics", s.instrument("/metrics", s.m.reg.Handler().ServeHTTP))
	s.mux.Handle("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("/debug/vrpd/requests", s.instrument("/debug/vrpd/requests", s.handleRequests))
	s.mux.Handle("/debug/vrpd/quality", s.instrument("/debug/vrpd/quality", s.handleQuality))
	s.mux.Handle("/debug/vrpd/trace/", s.instrument("/debug/vrpd/trace", s.handleTrace))
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Handler returns the server's root handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (the CLI uses it for a final
// stats line; tests scrape it directly).
func (s *Server) Metrics() http.Handler { return s.m.reg.Handler() }

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until ctx is cancelled, then
// drains with the given timeout (0 = wait indefinitely).
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("vrpd listening", "addr", ln.Addr().String())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.log.Info("vrpd draining", "reason", context.Cause(ctx))
		sctx := context.Background()
		if drainTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(sctx, drainTimeout)
			defer cancel()
		}
		if err := s.Shutdown(sctx); err != nil {
			return err
		}
		return <-errc
	}
}

// Shutdown flips readiness to 503 and gracefully drains: it blocks until
// every in-flight request has completed or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ---------------------------------------------------------- middleware

// statusWriter captures the status code and bytes written for the
// request log and the requests_total counter.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument assigns the request ID, counts the request by path and
// status, and emits exactly one structured log record per request.
func (s *Server) instrument(path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r.WithContext(withRequestID(r.Context(), id)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(t0)
		s.m.requests.With(path, strconv.Itoa(sw.status)).Inc()
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", path,
			"status", sw.status,
			"dur_ms", float64(dur.Microseconds())/1e3,
			"bytes_out", sw.bytes,
		)
	})
}

type ctxKey int

const requestIDKey ctxKey = 0

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ------------------------------------------------------------ handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// AnalyzeResponse is the JSON body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Converged   bool             `json:"converged"`
	Predictions []PredictionJSON `json:"predictions"`
	Diagnostics []DiagnosticJSON `json:"diagnostics,omitempty"`
	Stats       StatsJSON        `json:"stats"`

	// Explanation is the rendered provenance chain for ?explain=.
	Explanation string `json:"explanation,omitempty"`
	// Telemetry is the ?telemetry=1 payload.
	Telemetry *TelemetryJSON `json:"telemetry,omitempty"`

	// quality is the run's prediction-quality digest, carried to the
	// flight recorder (unexported: not part of the response body, which
	// must stay byte-identical between fresh analyses and cache hits).
	quality *telemetry.Quality
}

// TelemetryJSON is the ?telemetry=1 payload: the run's counters
// snapshot, plus the request's span tree (creation order, parents by
// index) as of the end of the analysis.
type TelemetryJSON struct {
	*telemetry.Snapshot
	Spans []telemetry.Span `json:"spans"`
}

// PredictionJSON is one conditional branch's prediction.
type PredictionJSON struct {
	Func   string  `json:"func"`
	Line   int     `json:"line"`
	Col    int     `json:"col"`
	Prob   float64 `json:"prob"`
	Source string  `json:"source"`
}

// DiagnosticJSON is one structured analysis event.
type DiagnosticJSON struct {
	Kind string `json:"kind"`
	Func string `json:"func,omitempty"`
	SCC  int    `json:"scc"`
	Pass int    `json:"pass"`
	Msg  string `json:"msg"`
}

// StatsJSON summarizes the engine's work for one analysis.
type StatsJSON struct {
	Passes        int   `json:"passes"`
	ExprEvals     int64 `json:"expr_evals"`
	PhiEvals      int64 `json:"phi_evals"`
	SubOps        int64 `json:"sub_ops"`
	FuncsAnalyzed int64 `json:"funcs_analyzed"`
	FuncsSkipped  int64 `json:"funcs_skipped"`
	FuncsDegraded int64 `json:"funcs_degraded"`
	RecWidens     int64 `json:"rec_widens"`
}

// errorResponse is the JSON body of every failed request.
type errorResponse struct {
	Error string `json:"error"`
	Stage string `json:"stage,omitempty"` // "read", "compile", "analyze", "explain"
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "", "POST Mini source to /v1/analyze")
		return
	}

	// The latency histogram covers every /v1/analyze outcome, load sheds
	// included, so timing starts before the shed check: observing only
	// admitted requests would make overload latency look artificially
	// healthy exactly when it matters.
	t0 := time.Now()
	defer func() { s.m.latency.Observe(time.Since(t0).Seconds()) }()

	// Every request carries a span tree from here down: validate →
	// cache probe → parse → SSA → VRP (driver sub-spans nest inside) →
	// render → write, all under one root. The tree is cheap (a handful
	// of spans plus one per engine run), feeds the per-phase histograms,
	// and — when the flight recorder keeps the request — is served back
	// verbatim from /debug/vrpd/trace/{id}.
	tr := telemetry.NewTrace()
	root := tr.Start(telemetry.NoSpan, "request", "POST /v1/analyze")

	// Load shedding: reject immediately when MaxInFlight analyses are
	// already running — a bounded queue beats an unbounded pile-up.
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "", "server at capacity, retry later")
		s.finishAnalyze(r.Context(), tr, root, &job{status: http.StatusTooManyRequests, outcome: "shed"}, time.Since(t0))
		return
	}
	defer func() { <-s.sem }()
	s.m.inflight.Inc()
	defer s.m.inflight.Dec()

	// Explain and telemetry responses carry per-run payloads, so they
	// bypass the response cache entirely.
	q := r.URL.Query()
	explain, wantTelemetry := q.Get("explain"), q.Get("telemetry") == "1"

	vSpan := tr.Start(root, "phase", "validate")
	src, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes), r.ContentLength, s.cfg.MaxSourceBytes)
	var mbe *http.MaxBytesError
	var j *job
	switch {
	case errors.As(err, &mbe):
		j = s.tooLarge()
	case err != nil:
		j = refused(http.StatusBadRequest, "read_error", err.Error())
	default:
		j = s.prepare(src, explain == "" && !wantTelemetry, tr, root, vSpan)
	}
	tr.End(vSpan) // a no-op once prepare has accepted the source
	if j.disp == "" {
		// Refused before the cache probe: no write phase, no analyze log.
		s.countOutcome(j.outcome)
		s.writeBody(w, j.status, j.body)
		s.finishAnalyze(r.Context(), tr, root, j, time.Since(t0))
		return
	}

	if s.testHookAnalyze != nil {
		s.testHookAnalyze()
	}
	s.finish(r.Context(), j, explain, wantTelemetry, tr, root)
	s.countOutcome(j.outcome)
	wSpan := tr.Start(root, "phase", "write")
	s.logAnalyze(r, j.outcome, j.disp, t0, j.resp)
	s.writeBody(w, j.status, j.body)
	tr.End(wSpan)
	s.finishAnalyze(r.Context(), tr, root, j, time.Since(t0))
}

// readBody reads a request body of declared length n (-1 when unknown)
// from body, which caps it at limit bytes: into one buffer of exactly n
// bytes when n is within the limit, else (chunked or oversize bodies)
// growing as io.ReadAll does. A body cut short of n bytes is an
// io.ErrUnexpectedEOF, as net/http reports it.
func readBody(body io.Reader, n, limit int64) ([]byte, error) {
	if n <= 0 || n > limit {
		return io.ReadAll(body)
	}
	buf := make([]byte, n)
	m, err := io.ReadFull(body, buf)
	return buf[:m], err
}

// finishAnalyze closes the root span, folds the request's phase durations
// into the per-phase histograms and the SLO window, and offers the
// request to the flight recorder. It runs once per /v1/analyze request,
// sheds and errors included, after the response has been written.
func (s *Server) finishAnalyze(ctx context.Context, tr *telemetry.Trace, root telemetry.SpanID, j *job, dur time.Duration) {
	tr.Annotate(root, "outcome", j.outcome)
	tr.End(root)
	spans := tr.Spans()
	phases := telemetry.PhaseDurations(spans, root)
	for name, ns := range phases {
		if h := s.m.phaseDur[name]; h != nil {
			h.Observe(float64(ns) / 1e9)
		}
	}
	if s.m.slo.observe(dur.Seconds()) {
		s.m.sloOver.Inc()
	}
	if s.recorder == nil {
		return
	}
	e := &recordedRequest{
		ID:      requestID(ctx),
		Path:    "/v1/analyze",
		Outcome: j.outcome,
		Status:  j.status,
		// Errors and sheds default to non-converged so interesting()
		// holds; a successful response overrides from its real result.
		Converged: j.status < 400,
		DurMS:     float64(dur.Microseconds()) / 1e3,
		Phases:    phases,
		Spans:     spans,
	}
	if j.fp != 0 {
		e.Fingerprint = fmt.Sprintf("%016x", j.fp)
	}
	if j.resp != nil {
		e.Converged = j.resp.Converged
		e.Degraded = j.resp.Stats.FuncsDegraded > 0
		e.Quality = j.resp.quality
	}
	if class, kept := s.recorder.offer(e); kept {
		s.m.kept.With(class).Inc()
	}
}

// testHookHashSource, when non-nil, may override the response-cache
// fingerprint of a source. Test-only: the collision tests force two
// different programs onto one digest to prove the source-equality
// confirm serves a fresh analysis rather than the colliding body
// (mirroring vrange's testFingerprintHook).
var testHookHashSource func(src []byte) (uint64, bool)

func hashSource(src []byte) uint64 {
	if testHookHashSource != nil {
		if h, ok := testHookHashSource(src); ok {
			return h
		}
	}
	return vrange.HashBytes(src)
}

// cacheProbe looks src up in the response cache under its fingerprint
// and returns the cache disposition: "hit" (body is the cached response),
// "miss", or "bypass" (caching disabled). Hit/miss/bypass/collision
// counters are maintained here so /v1/analyze and batch items count
// identically.
func (s *Server) cacheProbe(fp uint64, src []byte) (body []byte, disp string) {
	if s.cache == nil {
		s.m.cacheBypass.Inc()
		return nil, "bypass"
	}
	cached, ok, collided := s.cache.get(fp, src)
	if collided {
		s.m.cacheCollisions.Inc()
	}
	if ok {
		s.m.cacheHits.Inc()
		return cached, "hit"
	}
	s.m.cacheMisses.Inc()
	return nil, "miss"
}

// cacheFill stores a successful plain response body under (key, src).
func (s *Server) cacheFill(key uint64, src, body []byte) {
	if s.cache == nil {
		return
	}
	evicted, collided := s.cache.put(key, src, body)
	if evicted > 0 {
		s.m.cacheEvictions.Add(int64(evicted))
	}
	if collided {
		s.m.cacheCollisions.Inc()
	}
}

// marshalBody serializes a response value as compact JSON plus a trailing
// newline. Every body goes through it (writeJSON included), so cached
// bodies, batch items and direct writes are all byte-identical.
func marshalBody(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil { // cannot happen for these types; fail loudly anyway
		body, _ = json.Marshal(&errorResponse{Error: err.Error(), Stage: "encode"})
	}
	return append(body, '\n')
}

// ------------------------------------------------------- analysis core

// job carries one analysis through the two stages every /v1/analyze
// request and every batch item share: prepare resolves it outright or
// compiles it, and finish runs VRP on whatever prepare left compiled.
type job struct {
	src  []byte
	fp   uint64       // hashSource(src): cache key and recorder fingerprint
	disp string       // cache disposition: hit, miss or bypass; "" if refused
	prog *vrp.Program // non-nil: compiled, waiting for finish

	status  int
	outcome string
	body    []byte           // the exact response body, once resolved
	resp    *AnalyzeResponse // a fresh successful analysis, for the log and the recorder
}

// fail resolves j with an error body.
func (j *job) fail(status int, outcome, stage, msg string) {
	j.status, j.outcome = status, outcome
	j.body = marshalBody(&errorResponse{Error: msg, Stage: stage})
}

// refused is a source turned away before the cache probe.
func refused(status int, outcome, msg string) *job {
	j := &job{}
	j.fail(status, outcome, "read", msg)
	return j
}

func (s *Server) tooLarge() *job {
	return refused(http.StatusRequestEntityTooLarge, "too_large",
		fmt.Sprintf("source exceeds %d bytes", s.cfg.MaxSourceBytes))
}

// prepare is the front half of an analysis: it validates src,
// fingerprints it, probes the response cache when the response is
// cacheable, and compiles. The job comes back resolved (refused, cache
// hit or compile error) or holding the compiled program for finish.
// validate is the caller's open validate span, closed once src passes;
// batch items pass a nil trace.
func (s *Server) prepare(src []byte, cacheable bool, tr *telemetry.Trace, root, validate telemetry.SpanID) *job {
	if len(src) == 0 {
		return refused(http.StatusBadRequest, "empty", "empty body: POST Mini source")
	}
	if int64(len(src)) > s.cfg.MaxSourceBytes {
		return s.tooLarge()
	}
	tr.Annotate(validate, "bytes", strconv.Itoa(len(src)))
	tr.End(validate)
	s.m.srcBytes.Observe(float64(len(src)))

	j := &job{src: src, fp: hashSource(src), disp: "bypass"}
	if cacheable {
		cpSpan := tr.Start(root, "phase", "cache_probe")
		j.body, j.disp = s.cacheProbe(j.fp, src)
		tr.Annotate(cpSpan, "disposition", j.disp)
		tr.End(cpSpan)
		if j.disp == "hit" {
			j.status, j.outcome = http.StatusOK, "cache_hit"
			return j
		}
	} else {
		s.m.cacheBypass.Inc()
	}
	prog, err := s.compile(string(src), tr, root)
	if err != nil {
		j.fail(http.StatusUnprocessableEntity, "compile_error", "compile", err.Error())
		return j
	}
	j.prog = prog
	return j
}

// compile compiles src through the compile cache when the server has
// one, and whole otherwise or when the cache cannot compile it, so a
// compile error reads the same on every server.
func (s *Server) compile(src string, tr *telemetry.Trace, root telemetry.SpanID) (*vrp.Program, error) {
	if s.units != nil {
		if p := s.units.Compile("request.mini", src, false, tr, root); p != nil {
			return &vrp.Program{IR: p}, nil
		}
	}
	return vrp.CompileWith("request.mini", src, vrp.CompileOptions{Trace: tr, TraceParent: root})
}

// finish is the back half: it runs VRP on a compiled job, threading the
// run's telemetry into the lattice metrics, attaches the explain chain
// and telemetry when asked, renders the body and fills the response
// cache on a miss. A job prepare already resolved passes through.
func (s *Server) finish(ctx context.Context, j *job, explain string, wantTelemetry bool, tr *telemetry.Trace, root telemetry.SpanID) {
	if j.prog == nil {
		return
	}
	if s.cfg.AnalyzeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.AnalyzeTimeout)
		defer cancel()
	}
	vrpSpan := tr.Start(root, "phase", "vrp")
	opts := []vrp.Option{vrp.WithTelemetry(), vrp.WithWorkers(s.cfg.Workers), vrp.WithTrace(tr, vrpSpan)}
	if s.fstore != nil {
		opts = append(opts, vrp.WithFuncStore(s.fstore))
	}
	analysis, err := j.prog.AnalyzeContext(ctx, opts...)
	tr.End(vrpSpan)
	if err != nil {
		status, outcome := http.StatusInternalServerError, "analysis_error"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status, outcome = http.StatusServiceUnavailable, "cancelled"
		}
		j.fail(status, outcome, "analyze", err.Error())
		return
	}

	snap := analysis.Telemetry()
	s.m.observeSnapshot(snap)
	s.m.passes.Observe(float64(analysis.Result.Stats.Passes))
	if analysis.Converged() {
		s.m.converged.Inc()
	} else {
		s.m.notConverged.Inc()
	}

	resp := &AnalyzeResponse{
		Converged: analysis.Converged(),
		Stats: StatsJSON{
			Passes:        analysis.Result.Stats.Passes,
			ExprEvals:     analysis.Result.Stats.ExprEvals,
			PhiEvals:      analysis.Result.Stats.PhiEvals,
			SubOps:        analysis.Result.Stats.SubOps,
			FuncsAnalyzed: analysis.Result.Stats.FuncsAnalyzed,
			FuncsSkipped:  analysis.Result.Stats.FuncsSkipped,
			FuncsDegraded: analysis.Result.Stats.FuncsDegraded,
			RecWidens:     analysis.Result.Stats.RecWidens,
		},
		quality: analysis.Quality(),
	}
	preds := analysis.Predictions()
	resp.Predictions = make([]PredictionJSON, 0, len(preds)) // [] in JSON without branches
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, PredictionJSON{
			Func:   p.Func,
			Line:   p.Pos.Line,
			Col:    p.Pos.Col,
			Prob:   p.Prob,
			Source: p.Source,
		})
	}
	for _, d := range analysis.Diagnostics() {
		resp.Diagnostics = append(resp.Diagnostics, DiagnosticJSON{
			Kind: d.Kind.String(),
			Func: d.Func,
			SCC:  d.SCC,
			Pass: d.Pass,
			Msg:  d.Msg,
		})
	}
	if explain != "" {
		fn, line := explain, 0
		if i := strings.LastIndexByte(explain, ':'); i >= 0 {
			n, err := strconv.Atoi(explain[i+1:])
			if err != nil {
				j.fail(http.StatusBadRequest, "explain_error", "explain",
					fmt.Sprintf("bad explain target %q: want func or func:line", explain))
				return
			}
			fn, line = explain[:i], n
		}
		be, err := analysis.ExplainBranch(fn, line)
		if err != nil {
			j.fail(http.StatusUnprocessableEntity, "explain_error", "explain", err.Error())
			return
		}
		resp.Explanation = be.String()
	}
	if wantTelemetry {
		resp.Telemetry = &TelemetryJSON{Snapshot: snap, Spans: tr.Spans()}
	}

	rSpan := tr.Start(root, "phase", "render")
	j.status, j.outcome, j.resp, j.body = http.StatusOK, "ok", resp, marshalBody(resp)
	if j.disp == "miss" {
		s.cacheFill(j.fp, j.src, j.body)
	}
	tr.End(rSpan)
}

// ---------------------------------------------------------------- batch

// MaxBatchPrograms bounds one /v1/analyze-batch request.
const MaxBatchPrograms = 64

// batchRequest is the JSON body of POST /v1/analyze-batch.
type batchRequest struct {
	Programs []string `json:"programs"`
}

// batchItem is one program's result. Status is the HTTP status the same
// program POSTed to /v1/analyze would have produced, and Body is
// byte-identical to that response's body.
type batchItem struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// batchResponse is the JSON body of a successful batch request. The
// envelope itself is 200 even when individual items failed; per-item
// status lives in each result.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// handleAnalyzeBatch serves POST /v1/analyze-batch: N plain analyses in
// one request, sharing one in-flight slot and the warm response cache and
// per-function store. Items are processed in order through the same
// prepare/finish core as /v1/analyze, but pipelined: a producer goroutine
// runs prepare (validation, cache probe, parse→SSA) on item i+1 while
// this goroutine runs finish (VRP, render, cache fill) on item i.
func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "", "POST a JSON batch to /v1/analyze-batch")
		return
	}

	// As with /v1/analyze, timing starts before the shed check so 429s
	// are visible in the batch latency histogram.
	t0 := time.Now()
	defer func() { s.m.batchLatency.Observe(time.Since(t0).Seconds()) }()

	// One batch holds one in-flight slot: its items run sequentially
	// (pipelined against compilation), so however large, it occupies a
	// single analysis lane.
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, "", "server at capacity, retry later")
		return
	}
	defer func() { <-s.sem }()
	s.m.inflight.Inc()
	defer s.m.inflight.Dec()

	maxBody := s.cfg.MaxSourceBytes * MaxBatchPrograms
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "read",
				fmt.Sprintf("batch exceeds %d bytes", maxBody))
			return
		}
		s.writeError(w, http.StatusBadRequest, "read", err.Error())
		return
	}
	var req batchRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "read", "bad batch JSON: "+err.Error())
		return
	}
	if len(req.Programs) == 0 {
		s.writeError(w, http.StatusBadRequest, "read", `empty batch: want {"programs": ["...", ...]}`)
		return
	}
	if len(req.Programs) > MaxBatchPrograms {
		s.writeError(w, http.StatusBadRequest, "read",
			fmt.Sprintf("batch of %d programs exceeds the %d-program cap", len(req.Programs), MaxBatchPrograms))
		return
	}
	s.m.batchSize.Observe(float64(len(req.Programs)))

	if s.testHookAnalyze != nil {
		s.testHookAnalyze()
	}

	// Stage one (prepare) runs on a producer goroutine, ahead of stage
	// two (finish) here; batch items are untraced.
	jobs := make(chan *job, len(req.Programs))
	go func() {
		defer close(jobs)
		for _, p := range req.Programs {
			jobs <- s.prepare([]byte(p), true, nil, telemetry.NoSpan, telemetry.NoSpan)
		}
	}()

	results := make([]batchItem, 0, len(req.Programs))
	for j := range jobs {
		s.finish(r.Context(), j, "", false, nil, telemetry.NoSpan)
		s.countOutcome(j.outcome)
		// Bodies are compact json.Marshal output, so embedding them as a
		// RawMessage (minus the framing newline) re-serializes to the
		// exact same bytes /v1/analyze sent.
		results = append(results, batchItem{
			Status: j.status,
			Body:   json.RawMessage(bytes.TrimSuffix(j.body, []byte("\n"))),
		})
	}
	s.writeJSON(w, http.StatusOK, &batchResponse{Results: results})
}

// logAnalyze emits the analysis-specific log record (the instrument
// middleware separately logs the HTTP envelope).
func (s *Server) logAnalyze(r *http.Request, outcome, cache string, t0 time.Time, resp *AnalyzeResponse) {
	attrs := []any{
		"id", requestID(r.Context()),
		"outcome", outcome,
		"cache", cache,
		"dur_ms", float64(time.Since(t0).Microseconds()) / 1e3,
	}
	if resp != nil {
		attrs = append(attrs,
			"converged", resp.Converged,
			"predictions", len(resp.Predictions),
			"diagnostics", len(resp.Diagnostics),
			"passes", resp.Stats.Passes,
			"funcs_analyzed", resp.Stats.FuncsAnalyzed,
		)
	}
	s.log.Info("analyze", attrs...)
}

func (s *Server) countOutcome(outcome string) {
	s.m.analyses.With(outcome).Inc()
}

func (s *Server) writeError(w http.ResponseWriter, status int, stage, msg string) {
	s.writeJSON(w, status, &errorResponse{Error: msg, Stage: stage})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.writeBody(w, status, marshalBody(v))
}

func (s *Server) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
