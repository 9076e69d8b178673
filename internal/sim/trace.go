package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceKind classifies trace records.
type TraceKind uint8

// Trace record kinds.
const (
	// TraceTransfer is a discrete pipe transfer.
	TraceTransfer TraceKind = iota
	// TraceFlow is a fluid flow registration.
	TraceFlow
)

// String names the kind the way Dump and the Chrome export label it.
func (k TraceKind) String() string {
	switch k {
	case TraceTransfer:
		return "xfer"
	case TraceFlow:
		return "flow"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TraceRecord is one observation.
type TraceRecord struct {
	At    Time
	Kind  TraceKind
	Label string
	Value float64
}

// Tracer observes simulation activity for debugging and analysis.
// Tracing is off unless a Tracer is installed with Engine.SetTracer;
// the hooks are nil-checked so the hot path pays one branch.
//
// Retained records live in a fixed-capacity ring buffer: recording is
// O(1) regardless of how many records have been dropped, and Records
// returns the survivors oldest first.
type Tracer struct {
	eng   *Engine
	buf   []TraceRecord // ring storage, capacity == limit
	start int           // index of the oldest retained record
	count int           // retained records (<= limit)
	limit int

	// byLabel aggregates counts for summaries.
	byLabel map[string]int
}

// SetTracer installs (or removes, with nil) a tracer on the engine.
func (e *Engine) SetTracer(t *Tracer) {
	e.tracer = t
	if t != nil {
		t.eng = e
	}
}

// NewTracer returns a tracer keeping at most limit records (0 = 64k).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = 65536
	}
	return &Tracer{limit: limit, byLabel: make(map[string]int)}
}

// record appends an observation, overwriting the oldest past the limit.
func (t *Tracer) record(kind TraceKind, label string, value float64) {
	t.byLabel[label]++
	rec := TraceRecord{At: t.eng.Now(), Kind: kind, Label: label, Value: value}
	if t.count < t.limit {
		if len(t.buf) < t.limit {
			t.buf = append(t.buf, rec)
		} else {
			t.buf[(t.start+t.count)%t.limit] = rec
		}
		t.count++
		return
	}
	t.buf[t.start] = rec
	t.start = (t.start + 1) % t.limit
}

// Records returns a copy of the retained observations, oldest first.
func (t *Tracer) Records() []TraceRecord {
	out := make([]TraceRecord, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.buf[(t.start+i)%t.limit]
	}
	return out
}

// Count returns how many records with the label were observed (including
// dropped ones).
func (t *Tracer) Count(label string) int { return t.byLabel[label] }

// Dump writes a human-readable trace to w.
func (t *Tracer) Dump(w io.Writer) {
	for _, r := range t.Records() {
		fmt.Fprintf(w, "%12v %-5s %-32s %g\n", time.Duration(r.At), r.Kind, r.Label, r.Value)
	}
}

// Summary writes per-label counts, most frequent first.
func (t *Tracer) Summary(w io.Writer) {
	type kv struct {
		label string
		n     int
	}
	var all []kv
	for l, n := range t.byLabel {
		all = append(all, kv{l, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].label < all[j].label
	})
	for _, e := range all {
		fmt.Fprintf(w, "%8d  %s\n", e.n, e.label)
	}
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (loadable in chrome://tracing and Perfetto). Timestamps are
// microseconds; instant events use phase "i" with thread scope.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the retained records in the Chrome
// trace-event JSON format: open the file in chrome://tracing or
// https://ui.perfetto.dev to browse the run on a timeline. Each record
// becomes an instant event named by its label, on a per-kind track,
// with the record's value in args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 0,
		Args: map[string]any{"name": "ioctopus-sim"},
	})
	for _, k := range []TraceKind{TraceTransfer, TraceFlow} {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: int(k),
			Args: map[string]any{"name": k.String()},
		})
	}
	for _, r := range t.Records() {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name:  r.Label,
			Cat:   r.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(r.At) / 1e3, // ns -> us
			PID:   0,
			TID:   int(r.Kind),
			Args:  map[string]any{"value": r.Value},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// traceTransfer is called by pipes on each discrete transfer.
func (e *Engine) traceTransfer(pipe string, bytes int64) {
	if e.tracer != nil {
		e.tracer.record(TraceTransfer, pipe, float64(bytes))
	}
}

// traceFlow is called by pipes on fluid flow changes.
func (e *Engine) traceFlow(pipe, flow string, demand float64) {
	if e.tracer != nil {
		e.tracer.record(TraceFlow, pipe+"/"+flow, demand)
	}
}
