package scenario_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ioctopus/internal/experiments"
	"ioctopus/internal/scenario"
)

// chaosTestDurations is a reduced chaos timeline: long enough for
// failover and retransmission to play out, short enough for CI.
func chaosTestDurations() experiments.Durations {
	return experiments.Durations{
		Timeline:    200 * time.Millisecond,
		SampleEvery: 5 * time.Millisecond,
	}
}

// TestJSONRoundTrip: marshal → unmarshal must reproduce the spec
// exactly, and running the round-tripped spec must render
// byte-identically to running the original Go literal.
func TestJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip runs a full chaos timeline")
	}
	for _, tc := range []struct {
		name string
		sp   *scenario.Spec
		d    experiments.Durations
	}{
		{"chaos", scenario.Chaos(), chaosTestDurations()},
		{"generated", scenario.Generate(7), experiments.FuzzDurations()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.MarshalIndent(tc.sp, "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			back, err := scenario.Parse(data)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !reflect.DeepEqual(tc.sp, back) {
				t.Fatalf("round-tripped spec differs from the literal:\n%s", data)
			}
			a, err := experiments.RunSpec(tc.sp, tc.d)
			if err != nil {
				t.Fatalf("literal run: %v", err)
			}
			b, err := experiments.RunSpec(back, tc.d)
			if err != nil {
				t.Fatalf("round-trip run: %v", err)
			}
			if a.Render() != b.Render() {
				t.Error("round-tripped spec renders differently from the literal")
			}
		})
	}
}

// FuzzParse drives the spec parser, the one entry point for untrusted
// input (a JSON file on disk): Parse must never panic, and a spec it
// accepts must survive Marshal → Parse → Marshal unchanged. The seeds
// are the builtin chaos spec and the first generated specs.
func FuzzParse(f *testing.F) {
	seeds := []*scenario.Spec{scenario.Chaos()}
	for seed := int64(0); seed <= 5; seed++ {
		seeds = append(seeds, scenario.Generate(seed))
	}
	for _, sp := range seeds {
		data, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := scenario.Parse(data)
		if err != nil {
			return
		}
		once, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			t.Fatalf("marshal of an accepted spec: %v", err)
		}
		back, err := scenario.Parse(once)
		if err != nil {
			t.Fatalf("re-parse of a marshaled spec: %v\n%s", err, once)
		}
		if twice, err := json.MarshalIndent(back, "", "  "); err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("marshal is not a fixed point (err %v):\n--- once ---\n%s\n--- twice ---\n%s", err, once, twice)
		}
	})
}

// TestGenerateDeterministic: the generator is a pure function of its
// seed. That a run of what it generates is one too is held by
// TestJSONRoundTrip/generated (two runs of one spec in one process) and
// by scripts/check.sh (two processes over seeds 1-8).
func TestGenerateDeterministic(t *testing.T) {
	if !reflect.DeepEqual(scenario.Generate(3), scenario.Generate(3)) {
		t.Fatal("Generate(3) differs between calls")
	}
	if reflect.DeepEqual(scenario.Generate(3), scenario.Generate(4)) {
		t.Fatal("different seeds produced identical specs")
	}
}

// TestGenerateAlwaysValid: every generated spec passes Validate, a
// dry-run build of its cluster, so -fuzz never aborts on a spec it
// generated itself.
func TestGenerateAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if err := scenario.Generate(seed).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestFuzzInvariantsHold runs a handful of generated scenarios
// end-to-end and requires every declared invariant to pass — the
// in-process version of the check.sh fuzz gate.
func TestFuzzInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz runs take a few seconds")
	}
	for seed := int64(1); seed <= 4; seed++ {
		sp := scenario.Generate(seed)
		r, err := experiments.RunSpec(sp, experiments.FuzzDurations())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Passed() {
			t.Errorf("seed %d: invariant failed\n%s", seed, r.Render())
		}
	}
}

// TestValidateRejects spot-checks the validator's coverage: each
// mutation must be named in the error.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*scenario.Spec)
		want string
	}{
		{"bad mode", func(sp *scenario.Spec) { sp.Sim.Mode = "turbo" }, "unknown mode"},
		{"bad wiring", func(sp *scenario.Spec) { sp.Sim.Wiring = "duct-tape" }, "unknown wiring"},
		{"no workloads", func(sp *scenario.Spec) { sp.Sim.Workloads = nil }, "at least one workload"},
		{"bad fault kind", func(sp *scenario.Spec) { sp.Sim.Faults[0].Kind = "gremlin" }, "unknown fault kind"},
		{"fault past end", func(sp *scenario.Spec) { sp.Sim.Faults[0].AtPct = 95; sp.Sim.Faults[0].DurPct = 20 }, "outside the timeline"},
		{"dur_pct and dur_ns both set", func(sp *scenario.Spec) { sp.Sim.Faults[3].DurPct = 5 }, "dur_pct and dur_ns are exclusive"},
		{"bad pf", func(sp *scenario.Spec) { sp.Sim.Faults[0].PF = 9 }, "no PF 9"},
		{"overlapping windows", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, sp.Sim.Faults[1]) // second loss window on the same direction
		}, "overlapping"},
		{"dur_ns window overlapping at the shortest timeline", func(sp *scenario.Spec) {
			// 30 ms from 10% reaches past 12% on any run shorter than
			// 1.5 s, the fuzz and -quick timelines among them.
			sp.Sim.Faults = append(sp.Sim.Faults,
				scenario.FaultSpec{Kind: "corrupt", AtPct: 10, Dur: 30 * time.Millisecond, Dir: "client-to-server", Prob: 0.01},
				scenario.FaultSpec{Kind: "corrupt", AtPct: 12, DurPct: 1, Dir: "client-to-server", Prob: 0.01})
		}, "overlapping corrupt windows"},
		{"sample names tx stream", func(sp *scenario.Spec) { sp.Sim.Samples[0].Source = "workload:1" }, "forward stream"},
		{"window order", func(sp *scenario.Spec) { sp.Sim.Windows[1].FromPct = 5 }, "overlaps or precedes"},
		{"check without window", func(sp *scenario.Spec) { sp.Sim.Checks[7].Window = 9 }, "no window 9"},
		{"duplicate port", func(sp *scenario.Spec) { sp.Sim.Workloads[1].Port = sp.Sim.Workloads[0].Port }, "share port"},
		{"bad datapath", func(sp *scenario.Spec) { sp.Sim.Datapath = "zero-copy" }, "unknown datapath"},
		{"busypoll needs spare cores", func(sp *scenario.Spec) {
			sp.Sim.Datapath = "busypoll"
			sp.Sim.Topology.Server = scenario.MachineSpec{Sockets: 2, CoresPerSocket: 1}
			sp.Sim.Workloads[1].SrcCoreIdx = 0 // the reverse stream's source fits one core
		}, ">= 2 cores per server node"},
		{"standard queue-stall on unbound pf", func(sp *scenario.Spec) {
			// Standard mode on four sockets, without chaos's octo-only
			// counters and checks: the stalled PF is the one defect.
			sp.Sim.Mode = "standard"
			sp.Sim.Topology.Server = scenario.MachineSpec{Sockets: 4, CoresPerSocket: 2}
			sp.Sim.Counters = nil
			sp.Sim.Checks = []scenario.CheckSpec{{Kind: "no-abandoned", Name: "no segment abandoned"}}
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "queue-stall", PF: 2, Queue: 0, AtPct: 30, DurPct: 10})
		}, "PF 2 has 0 queue pairs"},
		{"loss without retransmission", func(sp *scenario.Spec) { sp.Sim.Retx = nil }, "retransmission is off"},
		{"loss without duration", func(sp *scenario.Spec) { sp.Sim.Faults[1].DurPct = 0 }, "needs positive duration"},
		{"link-flap without duration", func(sp *scenario.Spec) { sp.Sim.Faults[0].DurPct = 0 }, "needs positive duration"},
		{"stall without duration", func(sp *scenario.Spec) { sp.Sim.Faults[3].Dur = 0 }, "needs positive duration"},
		{"degrade without duration", func(sp *scenario.Spec) { sp.Sim.Faults[4].DurPct = 0 }, "needs positive duration"},
		{"sample source with trailing junk", func(sp *scenario.Spec) { sp.Sim.Samples[2].Source = "pf:1x" }, "unknown source"},
		{"sample source with a space", func(sp *scenario.Spec) { sp.Sim.Samples[2].Source = "pf: 1" }, "unknown source"},
		{"sample source with a sign", func(sp *scenario.Spec) { sp.Sim.Samples[2].Source = "pf:+1" }, "unknown source"},
		{"counter source with trailing junk", func(sp *scenario.Spec) { sp.Sim.Counters[2].Source = "server/nic/pf0/*_link_drops/x" }, "matches no metric"},
		{"malformed counter pattern", func(sp *scenario.Spec) { sp.Sim.Counters[2].Source = "server/nic/pf[" }, "syntax error in pattern"},
		{"octo counter under standard mode", func(sp *scenario.Spec) {
			// Without chaos's octo-only checks: the standard drivers
			// register no failover counters, so the source is the defect.
			sp.Sim.Mode = "standard"
			sp.Sim.Checks = []scenario.CheckSpec{{Kind: "no-abandoned", Name: "no segment abandoned"}}
		}, "matches no metric"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := scenario.Chaos()
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("validator accepted a malformed spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDatapathRoundTrips: every datapath spelling survives marshal →
// parse (including the omitted default), and validation accepts all of
// them on a topology with spare cores.
func TestDatapathRoundTrips(t *testing.T) {
	for _, dp := range []string{"", "interrupt", "busypoll", "hybrid"} {
		sp := scenario.Chaos()
		sp.Sim.Datapath = dp
		data, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			t.Fatalf("datapath %q: marshal: %v", dp, err)
		}
		back, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("datapath %q: parse: %v", dp, err)
		}
		if back.Sim.Datapath != dp {
			t.Errorf("datapath %q round-tripped to %q", dp, back.Sim.Datapath)
		}
	}
}

// TestGenerateDrawsDatapaths: the fuzz generator exercises all three
// datapaths across a modest seed sweep, so `-fuzz` coverage includes
// the poll-mode delivery paths.
func TestGenerateDrawsDatapaths(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 50; seed++ {
		dp := scenario.Generate(seed).Sim.Datapath
		if dp == "" {
			dp = "interrupt"
		}
		seen[dp] = true
	}
	for _, dp := range []string{"interrupt", "busypoll", "hybrid"} {
		if !seen[dp] {
			t.Errorf("50 seeds never drew datapath %q", dp)
		}
	}
}

// TestLoadResolvesBuiltinsAndRejectsJunk covers the -scenario argument
// resolution path.
func TestLoadResolvesBuiltinsAndRejectsJunk(t *testing.T) {
	for _, name := range scenario.Builtins() {
		if _, err := scenario.Load(name); err != nil {
			t.Errorf("builtin %s: %v", name, err)
		}
	}
	if _, err := scenario.Load("no-such-scenario-or-file"); err == nil {
		t.Error("Load accepted a bogus name")
	}
}

// TestValidateRejectsDeviceFaults covers the device-failure-domain
// additions: physically impossible schedules (a poller stall with no
// poll loop to wedge, a queue index the driver layout never creates)
// and checks/counters that need machinery the spec did not arm.
func TestValidateRejectsDeviceFaults(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*scenario.Spec)
		want string
	}{
		{"poller-stall on interrupt datapath", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "poller-stall", Node: 0, AtPct: 30, DurPct: 10})
		}, "no busy-poll loop on node 0"},
		{"poller-stall unknown node", func(sp *scenario.Spec) {
			sp.Sim.Datapath = "busypoll"
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "poller-stall", Node: 9, AtPct: 30, DurPct: 10})
		}, "no busy-poll loop on node 9"},
		{"poller-stall without duration", func(sp *scenario.Spec) {
			sp.Sim.Datapath = "busypoll"
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "poller-stall", Node: 0, AtPct: 30})
		}, "positive duration"},
		{"queue-stall unknown pf", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "queue-stall", PF: 9, Queue: 0, AtPct: 30, DurPct: 10})
		}, "no PF 9"},
		{"queue-stall queue outside driver layout", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "queue-stall", PF: 0, Queue: 999, AtPct: 30, DurPct: 10})
		}, "no queue 999"},
		{"queue-stall without duration", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "queue-stall", PF: 0, Queue: 0, AtPct: 30})
		}, "positive duration"},
		{"overlapping queue stalls same pair", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults,
				scenario.FaultSpec{Kind: "queue-stall", PF: 0, Queue: 0, AtPct: 30, DurPct: 20},
				scenario.FaultSpec{Kind: "queue-stall", PF: 0, Queue: 0, AtPct: 40, DurPct: 20})
		}, "overlapping"},
		{"watchdog non-positive interval", func(sp *scenario.Spec) {
			sp.Sim.Watchdog = &scenario.WatchdogSpec{Interval: 0}
		}, "positive interval"},
		{"fw-recovered without fw-reset", func(sp *scenario.Spec) {
			sp.Sim.Checks = append(sp.Sim.Checks, scenario.CheckSpec{Kind: "fw-recovered", Name: "x"})
		}, "no fw-reset fault"},
		{"queue-recovered without queue-stall", func(sp *scenario.Spec) {
			sp.Sim.Checks = append(sp.Sim.Checks, scenario.CheckSpec{Kind: "queue-recovered", Name: "x"})
		}, "no queue-stall fault"},
		{"queue-recovered min without watchdog", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "queue-stall", PF: 0, Queue: 0, AtPct: 30, DurPct: 10})
			sp.Sim.Checks = append(sp.Sim.Checks, scenario.CheckSpec{Kind: "queue-recovered", Name: "x", Min: 1})
		}, "needs the watchdog armed"},
		{"poller check on interrupt datapath", func(sp *scenario.Spec) {
			sp.Sim.Checks = append(sp.Sim.Checks, scenario.CheckSpec{Kind: "poller-fallback-and-back", Name: "x"})
		}, "needs the busypoll datapath"},
		{"watchdog counter without watchdog", func(sp *scenario.Spec) {
			sp.Sim.Counters = append(sp.Sim.Counters, scenario.CounterSpec{Label: "x", Source: "server/driver/*/watchdog/queue_resets"})
		}, "matches no metric"},
		{"fw-recovered without watchdog", func(sp *scenario.Spec) {
			sp.Sim.Faults = append(sp.Sim.Faults, scenario.FaultSpec{Kind: "fw-reset", AtPct: 30})
			sp.Sim.Checks = append(sp.Sim.Checks, scenario.CheckSpec{Kind: "fw-recovered", Name: "x"})
		}, "(fw-recovered): needs the watchdog armed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := scenario.Chaos()
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("validator accepted a malformed spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGenerateDrawsDeviceFaultKinds: the fuzz generator reaches every
// device fault kind across a modest seed sweep — and arms the watchdog
// whenever it schedules one, so the recovery checks it emits can pass.
func TestGenerateDrawsDeviceFaultKinds(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 120; seed++ {
		sp := scenario.Generate(seed)
		hasDev := false
		for _, f := range sp.Sim.Faults {
			seen[f.Kind] = true
			switch f.Kind {
			case "fw-reset", "queue-stall", "poller-stall":
				hasDev = true
			}
		}
		if hasDev && sp.Sim.Watchdog == nil {
			t.Fatalf("seed %d: device fault scheduled without arming the watchdog", seed)
		}
	}
	for _, kind := range []string{"fw-reset", "queue-stall", "poller-stall"} {
		if !seen[kind] {
			t.Errorf("120 seeds never drew fault kind %q", kind)
		}
	}
}
