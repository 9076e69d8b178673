package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/faults"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/scenario"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// TestRunnerPatternsMatch: each registry pattern the runner reads
// matches a metric of a cluster with every optional scope armed (octo
// driver, busy-poll loops, watchdog, fault injector). A check reads a
// pattern that matches nothing as 0, so a typo in one that stays 0 in
// passing runs, such as patAbandoned, would pass every golden.
func TestRunnerPatternsMatch(t *testing.T) {
	cl := core.NewCluster(core.Config{
		Mode:         core.ModeIOctopus,
		Datapath:     core.DatapathBusyPoll,
		DriverParams: driver.Params{WatchdogInterval: 500 * time.Microsecond},
		FaultPlan:    &faults.Plan{},
	})
	defer cl.Drain()
	for _, pattern := range []string{
		patWireDrops, patLinkDrops, patFailovers, patFailbacks, patReposted,
		patRetransmits, patAbandoned, patFwResets, patRulesReplayed,
		patQueueResets, patFwReprograms, patPFDead, patPFRecovered,
		patPollerFallbacks, patPollerReenters,
		patPolls, patEmptyPolls, patBursts, patBurstOccupancy,
		patDRAM, patBusy, patFabric, patNICRx,
	} {
		if _, matched, err := cl.Reg.Sum(pattern); err != nil || matched == 0 {
			t.Errorf("pattern %q matched %d metrics (err %v)", pattern, matched, err)
		}
	}
}

// TestCountersOnlyGrow: a measurement window is a delta of registry
// counters, so no counter of a fully armed cluster (octo driver,
// busy-poll loops, watchdog, retransmission, a link flap and wire loss,
// a STREAM antagonist, an Rx and a Tx stream) may ever read less than
// it did at an earlier snapshot.
func TestCountersOnlyGrow(t *testing.T) {
	cl := core.NewCluster(core.Config{
		Mode:         core.ModeIOctopus,
		Datapath:     core.DatapathBusyPoll,
		DriverParams: driver.Params{WatchdogInterval: 500 * time.Microsecond},
		StackParams:  netstack.Params{RetxTimeout: 500 * time.Microsecond, RetxMaxTries: 8},
		FaultPlan: &faults.Plan{Seed: 1, Events: []faults.Event{
			{At: 2 * time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: 2 * time.Millisecond},
			{At: 5 * time.Millisecond, Kind: faults.Loss, Dir: faults.ClientToServer, Prob: 0.05, Duration: 3 * time.Millisecond},
		}},
	})
	defer cl.Drain()
	workloads.StartAntagonist(cl.Server, workloads.DefaultAntagonistConfig(1))
	workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Rx,
		ServerCores: []topology.CoreID{0}, ClientCores: []topology.CoreID{0},
		ServerIP: core.IPServerPF0, Port: 7,
	})
	workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Tx,
		ServerCores: []topology.CoreID{cl.Server.Topo.CoresOn(1)[0].ID}, ClientCores: []topology.CoreID{1},
		ServerIP: core.IPServerPF0, Port: 9,
	})
	prev := map[string]float64{}
	for i := 0; i < 10; i++ {
		cl.Run(time.Millisecond)
		for _, s := range cl.Reg.Snapshot() {
			if s.Kind != metrics.KindCounter {
				continue
			}
			if was, ok := prev[s.Name]; ok && s.Value < was {
				t.Errorf("%v: counter %s fell from %v to %v", cl.Eng.Now(), s.Name, was, s.Value)
			}
			prev[s.Name] = s.Value
		}
	}
}

// traceDurations keeps traced test runs, and their trace files, small.
var traceDurations = Durations{
	Warmup:      time.Millisecond,
	Measure:     2 * time.Millisecond,
	Timeline:    10 * time.Millisecond,
	SampleEvery: time.Millisecond,
}

// TestTracedRunRendersSameText: tracing only observes, so a traced
// spec run renders exactly the text of an untraced one.
func TestTracedRunRendersSameText(t *testing.T) {
	plain, err := RunSpec(scenario.Chaos(), traceDurations)
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.NewTracer()
	traced, err := RunSpecTraced(scenario.Chaos(), traceDurations, tr)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Render() != plain.Render() {
		t.Fatalf("traced run renders differently:\n--- untraced ---\n%s\n--- traced ---\n%s", plain.Render(), traced.Render())
	}
}

// TestTraceFileDeterministic: two traced runs of a two-spec batch write
// byte-identical files, with one process per spec, in spec order and
// named by the spec, and records on both.
func TestTraceFileDeterministic(t *testing.T) {
	write := func() []byte {
		tr := sim.NewTracer()
		for _, sp := range []*scenario.Spec{scenario.Chaos(), scenario.Generate(1)} {
			if _, err := RunSpecTraced(sp, traceDurations, tr); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := tr.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := write(), write()
	if !bytes.Equal(a, b) {
		t.Fatal("two traced runs of one batch wrote different trace files")
	}

	var out struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
			Args  struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var procs []string
	records := map[int]int{}
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Name == "process_name":
			if ev.PID != len(procs) {
				t.Fatalf("process %q has pid %d, want %d", ev.Args.Name, ev.PID, len(procs))
			}
			procs = append(procs, ev.Args.Name)
		case ev.Phase == "i":
			records[ev.PID]++
		}
	}
	if want := []string{"chaos", "fuzz-1"}; !reflect.DeepEqual(procs, want) {
		t.Fatalf("processes = %q, want %q", procs, want)
	}
	if records[0] == 0 || records[1] == 0 {
		t.Fatalf("records per process = %v, want some on both", records)
	}
}
