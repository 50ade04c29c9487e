package telemetry

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// Request-scoped span tracing. A Trace is a tree of timed spans covering
// one request end to end: the server opens the root over the whole
// handler, hangs one phase span per pipeline stage off it (validate,
// cache probe, parse, SSA, render), and the analysis driver fills the
// "vrp" phase with callgraph and pass children, each pass parenting its
// engine runs — so a single artifact answers "which phase ate the time"
// for any request. Only timed work opens a span: counts of work spared
// (skips, splices) live in the Snapshot, not on the tree.
// The span tree is the pipeline's only timeline: the Snapshot holds
// counters, never timings.
//
// Two properties shape Trace:
//
//   - Disabled tracing costs zero allocations on the analyze hot path.
//     The driver holds a *Trace that is nil when tracing is off; every
//     method nil-checks its receiver (TestNilTraceZeroAlloc pins this),
//     so an untraced analysis compiles down to compare-and-skip.
//   - Enabled tracing never perturbs analysis results. Spans carry only
//     wall-clock timings and small label payloads; nothing in the lattice
//     reads them back. Span *timings* and lanes are inherently
//     nondeterministic, so tests assert on the tree structure, names and
//     labels, never on durations.
//
// Concurrency: Start/End/Annotate take an internal mutex, so driver
// workers can open engine spans from concurrent goroutines. The mutex is
// touched once per span — per engine run, not per worklist step — which
// keeps the enabled cost far off the hot path. Spans reference parents
// by index, so the backing slice may grow freely.

// SpanID names one span within its Trace. NoSpan is the nil parent (the
// root) and the id returned by every method of a nil Trace.
type SpanID int32

// NoSpan is the absent span: the parent of a root span, and the result
// of starting a span on a disabled (nil) Trace.
const NoSpan SpanID = -1

// Span is one node of the tree. Start and Dur are nanoseconds relative
// to the Trace's creation; Lane is the timeline row the span renders on
// in Chrome trace viewers (0 = the request's own goroutine, 1+N = driver
// worker N, so concurrent engine runs do not overlap on one row).
type Span struct {
	Name   string            `json:"name"`
	Cat    string            `json:"cat"`
	Parent SpanID            `json:"parent"`
	Lane   int32             `json:"lane"`
	Start  int64             `json:"start_ns"`
	Dur    int64             `json:"dur_ns"`
	Args   map[string]string `json:"args,omitempty"`
}

// Trace collects one request's span tree. A nil *Trace is the disabled
// state: every method is a no-op returning NoSpan.
type Trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace returns an enabled empty trace anchored at the current time.
func NewTrace() *Trace {
	return &Trace{t0: time.Now(), spans: make([]Span, 0, 32)}
}

// Now returns nanoseconds since the trace began (0 on a nil Trace).
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// Start opens a span under parent (NoSpan for a root) on the parent's
// lane and returns its id. An open span has Dur < 0 until End.
func (t *Trace) Start(parent SpanID, cat, name string) SpanID {
	return t.StartLane(parent, -1, cat, name)
}

// StartLane is Start on an explicit lane (driver workers pass their slot
// index + 1). lane < 0 inherits the parent's lane, or 0 for roots.
func (t *Trace) StartLane(parent SpanID, lane int32, cat, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if lane < 0 {
		lane = 0
		if parent >= 0 && int(parent) < len(t.spans) {
			lane = t.spans[parent].Lane
		}
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{
		Name:   name,
		Cat:    cat,
		Parent: parent,
		Lane:   lane,
		Start:  now,
		Dur:    -1,
	})
	t.mu.Unlock()
	return id
}

// End closes the span. Ending NoSpan (or ending twice) is a no-op, so
// callers can defer End unconditionally.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].Dur < 0 {
		t.spans[id].Dur = now - t.spans[id].Start
	}
	t.mu.Unlock()
}

// Annotate attaches one key=value label to the span.
func (t *Trace) Annotate(id SpanID, key, value string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		sp := &t.spans[id]
		if sp.Args == nil {
			sp.Args = make(map[string]string, 2)
		}
		sp.Args[key] = value
	}
	t.mu.Unlock()
}

// Spans returns a copy of the tree in creation order. Open spans report
// their duration as of the call, so a snapshot mid-request is coherent.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := range out {
		if out[i].Dur < 0 {
			out[i].Dur = now - out[i].Start
		}
		if out[i].Args != nil {
			args := make(map[string]string, len(out[i].Args))
			for k, v := range out[i].Args {
				args[k] = v
			}
			out[i].Args = args
		}
	}
	return out
}

// PhaseDurations sums the direct children of root by name: the request's
// phase breakdown. Children sharing a name accumulate into one figure.
func PhaseDurations(spans []Span, root SpanID) map[string]int64 {
	out := make(map[string]int64)
	for _, sp := range spans {
		if sp.Parent == root {
			out[sp.Name] += sp.Dur
		}
	}
	return out
}

// chromeEvent is one trace_event record. ts and dur are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteSpanChromeTrace serializes a span tree as Chrome trace_event JSON
// in the JSON Object Format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// so traces open directly in chrome://tracing and Perfetto. Each lane
// becomes one thread row; spans are complete ("X") events whose nesting
// Perfetto reconstructs from time containment within a lane. An empty
// span list still yields a loadable trace: traceEvents is always an
// array.
func WriteSpanChromeTrace(w io.Writer, spans []Span) error {
	const pid = 1
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	lanes := map[int32]bool{}
	for _, sp := range spans {
		lanes[sp.Lane] = true
	}
	maxLane := int32(0)
	for l := range lanes {
		if l > maxLane {
			maxLane = l
		}
	}
	for l := int32(0); l <= maxLane; l++ {
		if !lanes[l] {
			continue
		}
		name := "request"
		if l > 0 {
			name = "worker " + strconv.Itoa(int(l-1))
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: int(l),
			Args: map[string]string{"name": name},
		})
	}

	for _, sp := range spans {
		dur := sp.Dur
		if dur < 0 {
			dur = 0
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(dur) / 1e3,
			Pid:  pid,
			Tid:  int(sp.Lane),
			Args: sp.Args,
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}
