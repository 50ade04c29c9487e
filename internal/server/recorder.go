package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"vrp/internal/telemetry"
)

// The flight recorder keeps the interesting tail of recent traffic
// around for post-hoc inspection: when a warm request takes 40ms instead
// of 0.7ms, /debug/vrpd/requests names it and /debug/vrpd/trace/{id}
// hands back its full span tree as a Chrome trace.
//
// Retention is tail-sampling over a bounded ring, in priority order:
//
//   - every degraded, non-converged, errored or 429-shed request
//     ("interesting": the requests a post-mortem needs most),
//   - the K slowest requests seen so far ("slow"),
//   - a deterministic 1-in-N sample of everything else ("sample", so the
//     recorder always holds some baseline traffic to compare against).
//
// Under capacity pressure the oldest entry of the lowest-priority class
// present is evicted first — samples before slow outliers before
// interesting failures — so degraded and shed requests survive a flood
// of routine traffic. Admission and eviction are deterministic functions
// of the request sequence (no random sampling), so two identical traffic
// replays retain identical sets.

// Retention classes, in eviction priority order (lowest evicts first).
const (
	keepSample      = iota // deterministic 1-in-N baseline
	keepSlow               // among the K slowest seen
	keepInteresting        // degraded / non-converged / error / shed
)

var keepNames = [...]string{"sample", "slow", "interesting"}

// recordedRequest is one retained request. Spans is the full tree; the
// index endpoint serves everything but Spans.
type recordedRequest struct {
	ID          string           `json:"id"`
	Seq         int64            `json:"seq"`
	Path        string           `json:"path"`
	Fingerprint string           `json:"fingerprint,omitempty"` // source hash, hex
	Outcome     string           `json:"outcome"`
	Status      int              `json:"status"`
	Converged   bool             `json:"converged"`
	Degraded    bool             `json:"degraded"`
	DurMS       float64          `json:"dur_ms"`
	Keep        string           `json:"keep"`   // retention class, for operators
	Phases      map[string]int64 `json:"phases"` // top-level phase → ns
	Spans       []telemetry.Span `json:"-"`

	// Quality is the analysis's prediction-quality digest (nil for cache
	// hits, errors and sheds). Served by /debug/vrpd/quality, not by the
	// index.
	Quality *telemetry.Quality `json:"-"`

	keep int // retention class (mutable: slow entries can demote)
}

// interesting reports whether the request must survive pressure.
func (e *recordedRequest) interesting() bool {
	return e.Degraded || !e.Converged || e.Status >= 400
}

// Recorder settings: Config.RecorderEntries overrides the capacity. The
// server always keeps the DefaultRecorderSlowK slowest requests and a
// deterministic 1-in-DefaultRecorderSampleN sample of routine traffic.
const (
	DefaultRecorderEntries = 256
	DefaultRecorderSlowK   = 8
	DefaultRecorderSampleN = 16
)

type flightRecorder struct {
	mu      sync.Mutex
	cap     int
	slowK   int
	sampleN int64
	seq     int64

	entries []*recordedRequest // insertion order (oldest first)
	byID    map[string]*recordedRequest
	slow    []*recordedRequest // the current slowest-K, unordered
}

func newFlightRecorder(capacity, slowK int, sampleN int64) *flightRecorder {
	if capacity <= 0 {
		return nil // disabled
	}
	if slowK > capacity {
		slowK = capacity
	}
	return &flightRecorder{
		cap:     capacity,
		slowK:   slowK,
		sampleN: sampleN,
		byID:    map[string]*recordedRequest{},
	}
}

// offer considers one completed request for retention and reports
// whether (and why) it was kept. Safe for concurrent use.
func (r *flightRecorder) offer(e *recordedRequest) (string, bool) {
	if r == nil {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq

	slow := len(r.slow) < r.slowK
	if !slow {
		if f := r.fastestSlow(); f != nil && e.DurMS > f.DurMS {
			slow = true
		}
	}
	switch {
	case e.interesting():
		e.keep = keepInteresting
	case slow:
		e.keep = keepSlow
	case r.seq%r.sampleN == 0:
		e.keep = keepSample
	default:
		return "", false
	}
	// An interesting request can also be one of the slowest; track it in
	// the slow set too so the slow window stays honest.
	if slow {
		r.admitSlow(e)
	}
	r.entries = append(r.entries, e)
	r.byID[e.ID] = e
	for len(r.entries) > r.cap {
		r.evictOne()
	}
	e.Keep = keepNames[e.keep]
	return e.Keep, true
}

// fastestSlow returns the fastest member of the slow set.
func (r *flightRecorder) fastestSlow() *recordedRequest {
	var f *recordedRequest
	for _, s := range r.slow {
		if f == nil || s.DurMS < f.DurMS {
			f = s
		}
	}
	return f
}

// admitSlow inserts e into the slowest-K set, demoting the displaced
// fastest member to the sample class (it keeps its slot until capacity
// pressure evicts it, but no longer outranks fresh samples).
func (r *flightRecorder) admitSlow(e *recordedRequest) {
	r.slow = append(r.slow, e)
	if len(r.slow) <= r.slowK {
		return
	}
	fi := 0
	for i, s := range r.slow {
		if s.DurMS < r.slow[fi].DurMS {
			fi = i
		}
	}
	out := r.slow[fi]
	r.slow = append(r.slow[:fi], r.slow[fi+1:]...)
	if out.keep == keepSlow {
		out.keep = keepSample
		out.Keep = keepNames[keepSample]
	}
}

// evictOne removes the oldest entry of the lowest-priority class
// present. Caller holds the lock.
func (r *flightRecorder) evictOne() {
	victim := -1
	for i, e := range r.entries {
		if victim < 0 || e.keep < r.entries[victim].keep {
			victim = i
		}
		if r.entries[victim].keep == keepSample {
			break // nothing outranks an old sample
		}
	}
	if victim < 0 {
		return
	}
	out := r.entries[victim]
	r.entries = append(r.entries[:victim], r.entries[victim+1:]...)
	delete(r.byID, out.ID)
	for i, s := range r.slow {
		if s == out {
			r.slow = append(r.slow[:i], r.slow[i+1:]...)
			break
		}
	}
}

// index returns the retained requests, newest first, without spans.
func (r *flightRecorder) index() []*recordedRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*recordedRequest, len(r.entries))
	for i, e := range r.entries {
		c := *e
		c.Spans = nil
		c.Quality = nil
		out[len(out)-1-i] = &c
	}
	return out
}

// qualityRows returns the retained requests that carry a quality digest,
// newest first (fresh analyses only: cache hits and failures have none).
func (r *flightRecorder) qualityRows() []*recordedRequest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*recordedRequest
	for i := len(r.entries) - 1; i >= 0; i-- {
		e := r.entries[i]
		if e.Quality == nil {
			continue
		}
		c := *e
		c.Spans = nil
		out = append(out, &c)
	}
	return out
}

// get returns the full entry (spans included) by request id.
func (r *flightRecorder) get(id string) (*recordedRequest, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byID[id]
	if !ok {
		return nil, false
	}
	c := *e
	return &c, true
}

func (r *flightRecorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// ------------------------------------------------------------ endpoints

// requestIndex is the JSON body of GET /debug/vrpd/requests.
type requestIndex struct {
	Count    int                `json:"count"`
	Requests []*recordedRequest `json:"requests"` // newest first
}

// handleRequests serves the flight-recorder index: one row per retained
// request with its id, fingerprint, outcome, retention class and phase
// breakdown — enough to pick the request worth pulling the trace for.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "", "GET /debug/vrpd/requests")
		return
	}
	if s.recorder == nil {
		s.writeError(w, http.StatusNotFound, "", "flight recorder disabled (-recorder 0)")
		return
	}
	idx := &requestIndex{Requests: s.recorder.index()}
	idx.Count = len(idx.Requests)
	if idx.Requests == nil {
		idx.Requests = []*recordedRequest{}
	}
	// Sorted-by-recency is the useful default; ?sort=slowest flips to
	// worst-latency-first for the "which request should I look at" case.
	if r.URL.Query().Get("sort") == "slowest" {
		sort.SliceStable(idx.Requests, func(a, b int) bool {
			return idx.Requests[a].DurMS > idx.Requests[b].DurMS
		})
	}
	s.writeJSON(w, http.StatusOK, idx)
}

// qualityRow is one request's entry in GET /debug/vrpd/quality: identity
// plus the full per-function quality digest of its analysis.
type qualityRow struct {
	ID          string             `json:"id"`
	Seq         int64              `json:"seq"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Outcome     string             `json:"outcome"`
	Keep        string             `json:"keep"`
	DurMS       float64            `json:"dur_ms"`
	Quality     *telemetry.Quality `json:"quality"`
}

// qualityIndex is the JSON body of GET /debug/vrpd/quality.
type qualityIndex struct {
	Count    int           `json:"count"`
	Requests []*qualityRow `json:"requests"` // newest first
}

// handleQuality serves the prediction-quality tables of the flight
// recorder's kept requests: per-function cell classes, branch provenance
// and scores, the loss ledger and the evidence attribution of every
// retained fresh analysis.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "", "GET /debug/vrpd/quality")
		return
	}
	if s.recorder == nil {
		s.writeError(w, http.StatusNotFound, "", "flight recorder disabled (-recorder 0)")
		return
	}
	idx := &qualityIndex{Requests: []*qualityRow{}}
	for _, e := range s.recorder.qualityRows() {
		idx.Requests = append(idx.Requests, &qualityRow{
			ID:          e.ID,
			Seq:         e.Seq,
			Fingerprint: e.Fingerprint,
			Outcome:     e.Outcome,
			Keep:        e.Keep,
			DurMS:       e.DurMS,
			Quality:     e.Quality,
		})
	}
	idx.Count = len(idx.Requests)
	s.writeJSON(w, http.StatusOK, idx)
}

// handleTrace serves one retained request's span tree as Chrome trace
// JSON: /debug/vrpd/trace/{id} opens directly in Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "", "GET /debug/vrpd/trace/{id}")
		return
	}
	if s.recorder == nil {
		s.writeError(w, http.StatusNotFound, "", "flight recorder disabled (-recorder 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/vrpd/trace/")
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, http.StatusBadRequest, "", "want /debug/vrpd/trace/{request-id}")
		return
	}
	e, ok := s.recorder.get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, "", fmt.Sprintf("no recorded request %q (evicted or never retained)", id))
		return
	}
	var buf strings.Builder
	if err := telemetry.WriteSpanChromeTrace(&buf, e.Spans); err != nil {
		s.writeError(w, http.StatusInternalServerError, "", err.Error())
		return
	}
	s.writeBody(w, http.StatusOK, []byte(buf.String()))
}
