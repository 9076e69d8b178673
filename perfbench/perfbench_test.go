package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"ioctopus"
	"ioctopus/internal/workloads"
)

// tinySize is a few hundred host milliseconds of each workload.
func tinySize(name string) size {
	switch name {
	case "bulk-stream":
		return size{warmup: 5 * time.Millisecond, measure: 20 * time.Millisecond, slice: time.Millisecond}
	case "poll-rr":
		return size{warmup: time.Millisecond, measure: 4 * time.Millisecond, slice: 100 * time.Microsecond}
	case "paper-figures":
		return size{ids: []string{"fig2", "baseline-quad"}, durations: ioctopus.QuickDurations()}
	default:
		d := ioctopus.QuickDurations()
		d.Timeline = 200 * time.Millisecond
		return size{durations: d}
	}
}

func mustIterate(t *testing.T, name string, seed int64, sz size) *outcome {
	t.Helper()
	w, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	it, err := iterate(w, nil, 0, seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	return it.out
}

// The simulated per-layer counts are a pure function of the seed.
func TestSimulatedCountsRepeat(t *testing.T) {
	for _, name := range []string{"bulk-stream", "poll-rr", "fault-recovery"} {
		a := mustIterate(t, name, 7, tinySize(name))
		b := mustIterate(t, name, 7, tinySize(name))
		if a.digest() != b.digest() {
			t.Errorf("%s: two runs at seed 7 differ:\n%s\nvs\n%s", name, a.digest(), b.digest())
		}
		if name != "fault-recovery" && a.layers["sim.events"] == 0 {
			t.Errorf("%s: no simulated events counted", name)
		}
	}
}

// Running in slices gives the same counts as one uninterrupted
// Cluster.Run per phase.
func TestSlicedRunMatchesUninterrupted(t *testing.T) {
	for _, name := range []string{"bulk-stream", "poll-rr"} {
		sliced := tinySize(name)
		whole := sliced
		whole.slice = max(whole.warmup, whole.measure)
		a := mustIterate(t, name, 3, sliced)
		b := mustIterate(t, name, 3, whole)
		if a.digest() != b.digest() {
			t.Errorf("%s: sliced and uninterrupted runs differ:\n%s\nvs\n%s", name, a.digest(), b.digest())
		}
		// One slice per phase per cluster; bulk-stream runs two clusters.
		if want := map[string]int{"bulk-stream": 4, "poll-rr": 2}[name]; len(b.slices) != want {
			t.Errorf("%s: uninterrupted run took %d slices, want %d", name, len(b.slices), want)
		}
	}
}

// With explicit client cores, the IOctopus Rx and Tx streams of
// bulk-stream each keep their single-stream rate.
func TestBulkStreamsKeepSingleStreamRates(t *testing.T) {
	const warmup, measure = 10 * time.Millisecond, 60 * time.Millisecond
	run := func(rx, tx bool) (rxGbps, txGbps float64) {
		cl, err := ioctopus.NewClusterE(ioctopus.Config{Mode: ioctopus.ModeIOctopus, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Drain()
		var streams []*workloads.Stream
		if rx {
			streams = append(streams, startBulk(nil, 0, cl, ioctopus.Rx))
		}
		if tx {
			streams = append(streams, startBulk(nil, 0, cl, ioctopus.Tx))
		}
		cl.Run(warmup)
		for _, s := range streams {
			s.MeasureStart()
		}
		cl.Run(measure)
		if rx {
			rxGbps = gbps(streams[0].Bytes(), measure)
		}
		if tx {
			txGbps = gbps(streams[len(streams)-1].Bytes(), measure)
		}
		return rxGbps, txGbps
	}
	rxAlone, _ := run(true, false)
	_, txAlone := run(false, true)
	rxBoth, txBoth := run(true, true)
	for _, c := range []struct {
		name        string
		alone, both float64
	}{{"Rx", rxAlone, rxBoth}, {"Tx", txAlone, txBoth}} {
		t.Logf("%s: %.2f Gb/s alone, %.2f Gb/s beside the other stream", c.name, c.alone, c.both)
		if c.alone == 0 || math.Abs(c.both-c.alone)/c.alone > 0.03 {
			t.Errorf("%s: %.2f Gb/s beside the other stream vs %.2f Gb/s alone (want within 3%%)", c.name, c.both, c.alone)
		}
	}
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameMetrics reports whether a run's metrics are exactly the declared
// ones, each with its declared unit and a finite value.
func sameMetrics(t *testing.T, what string, declared []struct{ Name, Unit string }, r *report) {
	t.Helper()
	if len(r.defs) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(r.defs), len(declared))
	}
	units := map[string]string{}
	for _, d := range r.defs {
		units[d.name] = d.unit
		if v := r.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", what, d.name, v)
		}
	}
	for _, d := range declared {
		if u, ok := units[d.Name]; !ok {
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		} else if u != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, u, d.Unit)
		}
	}
}

// Each workload, at a tiny length, emits every declared end-to-end and
// per-layer metric with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Work) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Work), len(allWorkloads))
	}
	for _, sw := range spec.Work {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Errorf("declared workload %s does not exist", sw.Name)
			continue
		}
		r, err := timed(w, 1, time.Nanosecond, tinySize(w.name))
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, w.name+" timed", spec.EndToEnd, r)
		for _, name := range []string{"setup_s", "wall_s", "slice_p50_ms", "slice_p99_ms", "alloc_mb", "peak_rss_mb"} {
			if r.values[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, r.values[name])
			}
		}
		r, err = traced(w, 1, time.Nanosecond, tinySize(w.name), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sameMetrics(t, w.name+" traced", spec.PerLayer, r)
		if r.values["trace.spans"] == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
}

// The CPU buckets partition the profile: they sum to its total.
func TestCPUBucketsSumToTotal(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	mustIterate(t, "bulk-stream", 1, size{warmup: 10 * time.Millisecond, measure: 150 * time.Millisecond, slice: time.Millisecond})
	pprof.StopCPUProfile()
	buckets, total, err := cpuBuckets(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile total %v", total)
	}
	var sum float64
	for _, v := range buckets {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*total {
		t.Errorf("buckets sum to %v s, profile total %v s", sum, total)
	}
	if buckets["sim"] == 0 {
		t.Errorf("no CPU time in the sim engine: %v", buckets)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ioctopus/internal/sim.(*Engine).popMin":          "sim",
		"ioctopus/internal/workloads.StartStream.func1.1": "workloads",
		"ioctopus/internal/lint/analyzers.run":            "other",
		"runtime.selectgo":                                "runtime",
		"internal/runtime/atomic.(*Int32).CompareAndSwap": "runtime",
		"sync.(*Mutex).Lock":                              "other",
		"main.main":                                       "other",
		"":                                                "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
