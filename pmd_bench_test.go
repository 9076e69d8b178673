// Busy-poll datapath benchmarks and the quick-run golden gate.
// The PMD path has its own steady-state harness because its cost
// structure differs from the NAPI path: no IRQs, no softirq, just the
// poll loop — but the zero-alloc discipline is the same and
// BenchmarkBusyPollPath gates it the way BenchmarkPacketPath gates the
// interrupt path (scripts/check.sh compares against BENCH_sim.json).
package ioctopus_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ioctopus"
	"ioctopus/internal/core"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// busyPollCluster builds a single-core Rx streaming cluster on the
// busy-poll datapath and runs it past warm-up: pollers spinning, pools
// populated, TCP window in regulation.
func busyPollCluster() *core.Cluster {
	cl := ioctopus.NewCluster(ioctopus.Config{
		Mode:     ioctopus.ModeIOctopus,
		Datapath: ioctopus.DatapathBusyPoll,
	})
	workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Rx,
		ServerCores: []topology.CoreID{0}, ServerIP: core.IPServerPF0,
	})
	cl.Run(20 * time.Millisecond)
	return cl
}

// TestBusyPollPathAllocFree guards the poll-mode datapath: the spin
// loop, its burst closures and its work items are all built at
// construction, so a steady-state window allocates nothing.
func TestBusyPollPathAllocFree(t *testing.T) {
	cl := busyPollCluster()
	defer cl.Drain()
	allocs := testing.AllocsPerRun(5, func() {
		cl.Run(time.Millisecond)
	})
	if allocs > 2 {
		t.Fatalf("steady-state busy-poll path allocates %.0f allocs/ms, want 0", allocs)
	}
}

// BenchmarkBusyPollPath measures the steady-state poll-mode path: one
// simulated millisecond of single-core Rx streaming per iteration with
// cluster construction excluded. Events per op run well above the
// interrupt path's — every empty poll is an event — which is exactly
// the cost the busypoll column of `-fig pmd` shows as CPU.
func BenchmarkBusyPollPath(b *testing.B) {
	cl := busyPollCluster()
	defer cl.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	events := cl.Eng.Executed
	for i := 0; i < b.N; i++ {
		cl.Run(time.Millisecond)
	}
	b.ReportMetric(float64(cl.Eng.Executed-events)/float64(b.N), "events/op")
}

// TestFiguresMatchGolden pins every experiment's quick run — text and
// JSON report — to committed goldens: all_quick is what `-fig all
// -quick` prints (the default interrupt datapath, so the poll-mode
// machinery stays byte-invisible until it is switched on); hidden_quick
// covers the harnesses outside IDs() (chaos, the pmd datapath sweep and
// the devchaos watchdog sweep). A golden pins identity, which implies
// run-to-run determinism. Environment-dependent metadata (Go version,
// harness parallelism) is normalized on both sides; everything else
// must match exactly.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at quick durations")
	}
	for _, tc := range []struct {
		golden string
		ids    []string
	}{
		{"all_quick", ioctopus.ExperimentIDs()},
		{"hidden_quick", []string{"chaos", "pmd", "devchaos"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			d := ioctopus.QuickDurations()
			var b strings.Builder
			results := make([]*ioctopus.ExperimentResult, 0, len(tc.ids))
			for _, id := range tc.ids {
				res, err := ioctopus.RunExperiment(id, d)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				results = append(results, res)
				b.WriteString(res.Render())
				b.WriteString("\n")
			}

			wantText, err := os.ReadFile("testdata/" + tc.golden + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if b.String() != string(wantText) {
				t.Errorf("quick-run text diverges from testdata/%s.txt", tc.golden)
			}

			rep := ioctopus.NewReport(tc.ids, true, d, results)
			rep.Registry = ioctopus.RegistrySnapshots(d)
			enc, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := os.ReadFile("testdata/" + tc.golden + ".json")
			if err != nil {
				t.Fatal(err)
			}
			norm := func(s []byte) string {
				out := regexp.MustCompile(`"go_version": *"[^"]*"`).ReplaceAllString(string(s), `"go_version": "X"`)
				return regexp.MustCompile(`"parallelism": *[0-9]+`).ReplaceAllString(out, `"parallelism": 0`)
			}
			if norm(enc) != norm(wantJSON) {
				t.Errorf("quick-run JSON report diverges from testdata/%s.json", tc.golden)
			}
		})
	}
}
