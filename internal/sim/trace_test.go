package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// records returns a copy of the tracer's retained observations, oldest
// first.
func records(tr *Tracer) []TraceRecord {
	out := make([]TraceRecord, tr.count)
	for i := range out {
		out[i] = tr.buf[(tr.start+i)%tr.limit]
	}
	return out
}

func TestTracerRecordsTransfersAndFlows(t *testing.T) {
	e := NewEngine()
	tr := NewTracer()
	tr.Attach(e, "run")
	p := NewPipe(e, PipeConfig{Name: "link", BytesPerSec: 1e9})
	p.Transfer(1000, nil)
	p.Transfer(2000, nil)
	p.AddFlow("bulk", 5e8)
	e.RunUntilIdle()
	want := []TraceRecord{
		{Kind: TraceTransfer, Label: "link", Value: 1000},
		{Kind: TraceTransfer, Label: "link", Value: 2000},
		{Kind: TraceFlow, Label: "link/bulk", Value: 5e8},
	}
	if got := records(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("records = %+v, want %+v", got, want)
	}
}

func TestTracerLimitDropsOldest(t *testing.T) {
	e := NewEngine()
	tr := &Tracer{limit: 4}
	tr.Attach(e, "run")
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e9})
	for i := 0; i < 10; i++ {
		p.Transfer(int64(i+1), nil)
		e.RunUntilIdle()
	}
	recs := records(tr)
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	if recs[len(recs)-1].Value != 10 {
		t.Fatalf("latest record = %v, want the newest transfer", recs[len(recs)-1].Value)
	}
}

func TestTracingOffByDefaultIsFree(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e9})
	p.Transfer(100, nil) // must not panic with no tracer attached
	p.AddFlow("bulk", 1e6)
	e.RunUntilIdle()
}

// TestTracerRingOrderAfterWrap: once past the limit the ring buffer
// overwrites in place; Records must still return survivors oldest
// first with exact count, at every fill level.
func TestTracerRingOrderAfterWrap(t *testing.T) {
	for _, total := range []int{1, 3, 4, 5, 9, 17} {
		e := NewEngine()
		tr := &Tracer{limit: 4}
		tr.Attach(e, "run")
		p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e9})
		for i := 0; i < total; i++ {
			e.After(time.Duration(i+1)*time.Microsecond, func() { p.Transfer(1, nil) })
		}
		e.RunUntilIdle()
		recs := records(tr)
		want := total
		if want > 4 {
			want = 4
		}
		if len(recs) != want {
			t.Fatalf("total=%d: records = %d, want %d", total, len(recs), want)
		}
		for i, r := range recs {
			wantAt := Time(time.Duration(total-want+i+1) * time.Microsecond)
			if r.At != wantAt {
				t.Fatalf("total=%d: record %d at %v, want %v (oldest-first order broken)",
					total, i, r.At, wantAt)
			}
		}
	}
}

// TestTracerRecordIsConstantTime: recording past the limit must not
// shift the whole buffer. With the old copy-per-record scheme 200k
// records over a 64k window took quadratic time; the ring makes each
// record O(1), which this test bounds loosely by just completing fast
// with a big limit and many drops.
func TestTracerRecordIsConstantTime(t *testing.T) {
	e := NewEngine()
	tr := &Tracer{limit: 1 << 14}
	tr.Attach(e, "run")
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e12})
	const n = 1 << 17
	for i := 0; i < n; i++ {
		p.Transfer(1, nil)
	}
	e.RunUntilIdle()
	if got := len(records(tr)); got != 1<<14 {
		t.Fatalf("records = %d", got)
	}
}

// TestTracerChromeExport: one tracer over two engines writes valid
// JSON with one named process per engine, in attach order, and each
// record on its engine's process and its kind's track.
func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	for _, name := range []string{"first", "second"} {
		e := NewEngine()
		tr.Attach(e, name)
		p := NewPipe(e, PipeConfig{Name: "link", BytesPerSec: 1e9})
		e.After(time.Microsecond, func() { p.Transfer(1500, nil) })
		p.AddFlow("bulk", 1e6)
		e.RunUntilIdle()
	}

	var buf strings.Builder
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	procs := map[int]string{}
	xfers, flows := map[int]bool{}, map[int]bool{}
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Name == "process_name":
			procs[ev.PID], _ = ev.Args["name"].(string)
		case ev.Name == "link" && ev.Cat == "xfer":
			xfers[ev.PID] = true
			if ev.Phase != "i" || ev.TS != 1.0 || ev.TID != int(TraceTransfer) {
				t.Fatalf("xfer event wrong: %+v", ev)
			}
			if v, _ := ev.Args["value"].(float64); v != 1500 {
				t.Fatalf("xfer value = %v", ev.Args["value"])
			}
		case ev.Name == "link/bulk" && ev.Cat == "flow":
			flows[ev.PID] = true
		}
	}
	if want := map[int]string{0: "first", 1: "second"}; !reflect.DeepEqual(procs, want) {
		t.Fatalf("processes = %v, want %v", procs, want)
	}
	if len(xfers) != 2 || len(flows) != 2 || out.DisplayTimeUnit != "ms" {
		t.Fatalf("events per process: xfer %v flow %v (unit %q):\n%s", xfers, flows, out.DisplayTimeUnit, buf.String())
	}
}

// TestFireAndForgetTransferSchedulesNoEvent: a Transfer with a nil
// callback must not churn the event heap, yet RunUntilIdle must still
// end with the clock at the transfer's completion time.
func TestFireAndForgetTransferSchedulesNoEvent(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e9, BaseLatency: time.Microsecond})
	finish := p.Transfer(1000, nil)
	if e.Pending() != 0 {
		t.Fatalf("fire-and-forget transfer queued %d event(s)", e.Pending())
	}
	before := e.Executed
	e.RunUntilIdle()
	if e.Executed != before {
		t.Fatalf("dispatched %d event(s) for a nil-done transfer", e.Executed-before)
	}
	if e.Now() != finish {
		t.Fatalf("RunUntilIdle left clock at %v, want %v", e.Now(), finish)
	}
	// A callback transfer still schedules exactly one event.
	fired := false
	p.Transfer(1000, func() { fired = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if !fired {
		t.Fatal("done callback never fired")
	}
}

// TestRunBoundedThenIdleReachesHorizon: Run(until) before the
// fire-and-forget completion leaves the clock at until; a later
// RunUntilIdle still advances to the completion time.
func TestRunBoundedThenIdleReachesHorizon(t *testing.T) {
	e := NewEngine()
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e6})
	finish := p.Transfer(1000, nil) // 1 ms serialization
	e.Run(Time(10 * time.Microsecond))
	if e.Now() != Time(10*time.Microsecond) {
		t.Fatalf("bounded run ended at %v", e.Now())
	}
	e.RunUntilIdle()
	if e.Now() != finish {
		t.Fatalf("idle run ended at %v, want %v", e.Now(), finish)
	}
}

func TestTracerTimestamps(t *testing.T) {
	e := NewEngine()
	tr := NewTracer()
	tr.Attach(e, "run")
	p := NewPipe(e, PipeConfig{Name: "l", BytesPerSec: 1e9})
	e.After(time.Microsecond, func() { p.Transfer(1, nil) })
	e.RunUntilIdle()
	if len(records(tr)) != 1 || records(tr)[0].At != Time(time.Microsecond) {
		t.Fatalf("records = %+v", records(tr))
	}
}
