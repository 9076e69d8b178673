// Busy-poll datapath benchmarks. The PMD path has its own steady-state
// harness because its cost structure differs from the NAPI path: no
// IRQs, no softirq, just the poll loop — but the zero-alloc discipline
// is the same and BenchmarkBusyPollPath gates it the way
// BenchmarkPacketPath gates the interrupt path (scripts/check.sh
// compares against BENCH_sim.json).
package ioctopus_test

import (
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
// cluster construction excluded. Empty polls cost no events: the loop
// goes dormant and a ledger counts them (DESIGN.md §9), so events per
// op are the polls that find work plus the datapath's own events.
// scripts/check.sh caps them (BENCH_sim.json's gate) so idle polls
// cannot drift back onto the event heap, and caps wakes/op as for the
// interrupt path.
func BenchmarkBusyPollPath(b *testing.B) {
	cl := busyPollCluster()
	defer cl.Drain()
	runSteady(b, cl)
}
