package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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

// String names the kind the way the Chrome export labels it.
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
	At Time
	// PID is the recording engine's trace process: its attach order.
	PID   int
	Kind  TraceKind
	Label string
	Value float64
}

// traceLimit is how many records a Tracer retains: the newest, across
// every engine attached to it.
const traceLimit = 1 << 20

// Tracer observes simulation activity for debugging and analysis. One
// Tracer serves a whole run: each engine attached to it becomes one
// named process of the Chrome trace it writes. Tracing is off unless an
// engine is attached; the hooks are nil-checked so the hot path pays
// one branch. The engines attached to one Tracer must not run
// concurrently.
//
// Retained records live in one fixed-capacity ring buffer, so memory
// stays flat however long the run: recording is O(1) regardless of how
// many records have been dropped, and Records returns the survivors
// oldest first.
type Tracer struct {
	buf   []TraceRecord // ring storage, grown up to limit
	start int           // index of the oldest retained record
	count int           // retained records (<= limit)
	limit int
	procs []string // process names, indexed by PID
}

// NewTracer returns a tracer retaining the newest 2^20 records.
func NewTracer() *Tracer { return &Tracer{limit: traceLimit} }

// Attach makes e record into t as a new trace process named name, with
// the next PID (0 for the first engine attached). Attach an engine
// before it runs, and at most once.
func (t *Tracer) Attach(e *Engine, name string) {
	e.tracer, e.tracePID = t, len(t.procs)
	t.procs = append(t.procs, name)
}

// record appends an observation, overwriting the oldest past the limit.
func (t *Tracer) record(rec TraceRecord) {
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

// chromeEvent is one entry of the Chrome trace-event JSON format
// (loadable in chrome://tracing and Perfetto). Timestamps are
// microseconds; instant events use phase "i" with thread scope.
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	Scope string  `json:"s,omitempty"`
	TS    float64 `json:"ts"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Args  any     `json:"args,omitempty"`
}

// nameArg and valueArg are the args of metadata and instant events.
type (
	nameArg struct {
		Name string `json:"name"`
	}
	valueArg struct {
		Value float64 `json:"value"`
	}
)

// WriteChromeTrace exports the retained records in the Chrome
// trace-event JSON format: open the file in chrome://tracing or
// https://ui.perfetto.dev to browse the run on a timeline. Each
// attached engine is one process, named at Attach, with one track per
// record kind; each record becomes an instant event named by its label,
// with the record's value in args. Events stream to w one at a time,
// so the export needs no memory beyond the ring.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"traceEvents":[`)
	sep := ""
	emit := func(ev chromeEvent) error {
		bw.WriteString(sep)
		sep = ","
		return enc.Encode(ev)
	}
	for pid, name := range t.procs {
		if err := emit(chromeEvent{Name: "process_name", Phase: "M", PID: pid, Args: nameArg{name}}); err != nil {
			return err
		}
		for _, k := range []TraceKind{TraceTransfer, TraceFlow} {
			if err := emit(chromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: int(k), Args: nameArg{k.String()}}); err != nil {
				return err
			}
		}
	}
	for i := 0; i < t.count; i++ {
		r := &t.buf[(t.start+i)%t.limit]
		if err := emit(chromeEvent{
			Name:  r.Label,
			Cat:   r.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(r.At) / 1e3, // ns -> us
			PID:   r.PID,
			TID:   int(r.Kind),
			Args:  valueArg{r.Value},
		}); err != nil {
			return err
		}
	}
	bw.WriteString(`],"displayTimeUnit":"ms"}` + "\n")
	return bw.Flush()
}

// traceTransfer is called by pipes on each discrete transfer.
func (e *Engine) traceTransfer(pipe string, bytes int64) {
	if e.tracer != nil {
		e.tracer.record(TraceRecord{At: e.now, PID: e.tracePID, Kind: TraceTransfer, Label: pipe, Value: float64(bytes)})
	}
}

// traceFlow is called by pipes on fluid flow changes.
func (e *Engine) traceFlow(pipe, flow string, demand float64) {
	if e.tracer != nil {
		e.tracer.record(TraceRecord{At: e.now, PID: e.tracePID, Kind: TraceFlow, Label: pipe + "/" + flow, Value: demand})
	}
}
