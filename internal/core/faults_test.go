package core

import (
	"strings"
	"testing"
	"time"

	"ioctopus/internal/driver"
	"ioctopus/internal/eth"
	"ioctopus/internal/faults"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/pcie"
	"ioctopus/internal/topology"
)

func TestValidateConfigRejectsBrokenMachines(t *testing.T) {
	corelessNode := topology.DualBroadwell()
	corelessNode.Sockets[1].Cores = nil
	noCores := topology.DualBroadwell()
	for _, sk := range noCores.Sockets {
		sk.Cores = nil
	}
	// More sockets than a x16 card can bifurcate across.
	ref := topology.DualBroadwell()
	many := topology.Build("many-sockets", 17, 1, 2.0, ref.Sockets[0].LLC, ref.Sockets[0].DRAM, ref.Interconnect)
	noDRAMBandwidth := topology.DualBroadwell()
	noDRAMBandwidth.Sockets[1].DRAM.BytesPerSec = 0
	duplicateCore := topology.DualBroadwell()
	duplicateCore.Sockets[1].Cores[0].ID = 0
	noLinks := topology.DualBroadwell()
	noLinks.Interconnect.LinksPerPair = 0
	noLLC := topology.DualBroadwell()
	noLLC.Sockets[0].LLC.Size = 0
	// A link flap drops every frame sent into the dead PF.
	flap := &faults.Plan{Events: []faults.Event{
		{At: time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: time.Millisecond},
	}}

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"core-less server node", Config{ServerTopo: corelessNode}, "has no cores"},
		{"core-less client node", Config{ClientTopo: corelessNode}, "has no cores"},
		{"no cores at all", Config{ServerTopo: noCores}, "no cores"},
		{"over-bifurcated card", Config{ServerTopo: many}, "cannot bifurcate"},
		{"zero DRAM bandwidth", Config{ServerTopo: noDRAMBandwidth}, "bad DRAM spec"},
		{"duplicate core id", Config{ClientTopo: duplicateCore}, "duplicate core id 0"},
		{"no interconnect links", Config{ServerTopo: noLinks}, "needs an interconnect"},
		{"zero-size LLC", Config{ServerTopo: noLLC}, "bad LLC spec"},
		{"frame-dropping fault without retransmission", Config{FaultPlan: flap}, "retransmission is off"},
		{"unknown wiring", Config{Wiring: pcie.Wiring(42)}, "unknown PCIe wiring"},
		{"unknown mode", Config{Mode: NICMode(9)}, "unknown NIC mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateConfig(c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ValidateConfig = %v, want mention of %q", err, c.want)
			}
			if _, err := NewClusterE(c.cfg); err == nil {
				t.Fatal("NewClusterE accepted the config ValidateConfig rejected")
			}
		})
	}
}

func TestNewClusterERejectsBadFaultPlan(t *testing.T) {
	cfg := Config{StackParams: retxParams(), FaultPlan: &faults.Plan{Events: []faults.Event{
		{Kind: faults.Loss, Prob: 2, Duration: time.Millisecond},
	}}}
	if _, err := NewClusterE(cfg); err == nil || !strings.Contains(err.Error(), "out of [0,1]") {
		t.Fatalf("NewClusterE = %v, want probability error", err)
	}
}

func TestNewClusterPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCluster should keep the historical panic behaviour")
		}
	}()
	NewCluster(Config{Mode: NICMode(9)})
}

// TestEmptyFaultPlanIsByteIdentical is the no-fault regression gate:
// arming an empty plan must leave the simulation bit-for-bit identical
// to a build with no plan at all — same delivered bytes, same value for
// every registry probe. This is what keeps the fault hooks zero-cost on
// the no-fault path.
func TestEmptyFaultPlanIsByteIdentical(t *testing.T) {
	run := func(plan *faults.Plan) (int64, map[string]float64) {
		got, cl := runStream(t, Config{Mode: ModeIOctopus, FaultPlan: plan}, 0, IPServerPF0, 64*1024, 10*time.Millisecond)
		vals := make(map[string]float64)
		for _, s := range cl.Reg.Snapshot() {
			if strings.HasPrefix(s.Name, "faults/") {
				continue // the injector's own (all-zero) counters
			}
			vals[s.Name] = s.Value
		}
		return got, vals
	}
	gotNil, snapNil := run(nil)
	gotEmpty, snapEmpty := run(&faults.Plan{Seed: 123})
	if gotNil != gotEmpty {
		t.Fatalf("delivered bytes diverged: nil plan %d, empty plan %d", gotNil, gotEmpty)
	}
	if len(snapNil) != len(snapEmpty) {
		t.Fatalf("registry shape diverged: %d vs %d probes", len(snapNil), len(snapEmpty))
	}
	for name, v := range snapNil {
		if ev, ok := snapEmpty[name]; !ok || ev != v {
			t.Errorf("%s: nil plan %v, empty plan %v", name, v, ev)
		}
	}
}

// runFaultStream is runStream plus a sent-bytes count, for end-to-end
// loss accounting under injected faults.
func runFaultStream(t *testing.T, cfg Config, dur time.Duration) (sent, received int64, cl *Cluster) {
	t.Helper()
	cl = NewCluster(cfg)
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("netserver", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			sock.Send(th, 64*1024)
			sent += 64 * 1024
		}
	})
	cl.Run(dur)
	cl.Drain()
	return sent, received, cl
}

// count reads the integer total of the metrics a registry pattern
// matches, failing the test when it matches none.
func count(t *testing.T, cl *Cluster, pattern string) uint64 {
	t.Helper()
	total, matched, err := cl.Reg.Sum(pattern)
	if err != nil || matched == 0 {
		t.Fatalf("registry pattern %q matched %d metrics (err %v)", pattern, matched, err)
	}
	return uint64(total)
}

// retxParams enables the retransmission timer the recovery tests need.
func retxParams() netstack.Params {
	return netstack.Params{RetxTimeout: 2 * time.Millisecond, RetxMaxTries: 12}
}

func TestPFFailoverKeepsStreamAlive(t *testing.T) {
	cfg := Config{
		Mode:        ModeIOctopus,
		StackParams: retxParams(),
		FaultPlan: &faults.Plan{Events: []faults.Event{
			{At: 10 * time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: 10 * time.Millisecond},
		}},
	}
	sent, received, cl := runFaultStream(t, cfg, 40*time.Millisecond)
	if n := count(t, cl, "faults/link_transitions"); n != 2 {
		t.Fatalf("link transitions = %d, want 2", n)
	}
	failovers := count(t, cl, "server/driver/octo0/failover/failovers")
	failbacks := count(t, cl, "server/driver/octo0/failover/failbacks")
	if failovers < 1 || failbacks < 1 {
		t.Fatalf("failovers = %d, failbacks = %d, want >= 1 each", failovers, failbacks)
	}
	// Traffic really hit the dead link before the driver re-steered.
	if count(t, cl, "server/nic/pf0/*_link_drops") == 0 {
		t.Fatal("nothing died at the downed PF; the fault did not bite")
	}
	// Everything dropped was recovered: the sender may only be ahead by
	// in-flight/buffered data, and nothing was abandoned.
	bound := netstack.SendWindow + netstack.RxBufBytes
	if gap := sent - received; gap > bound {
		t.Fatalf("lost data across failover: gap %d > bound %d", gap, bound)
	}
	if abandoned := count(t, cl, "*/stack/retx/abandoned"); abandoned != 0 {
		t.Fatalf("abandoned %d segments", abandoned)
	}
}

func TestWireLossRecoveredByRetransmission(t *testing.T) {
	cfg := Config{
		Mode:        ModeIOctopus,
		StackParams: retxParams(),
		FaultPlan: &faults.Plan{
			Seed: 7,
			Events: []faults.Event{
				{At: 5 * time.Millisecond, Kind: faults.Loss, Dir: faults.ClientToServer, Prob: 0.05, Duration: 10 * time.Millisecond},
			},
		},
	}
	sent, received, cl := runFaultStream(t, cfg, 30*time.Millisecond)
	if count(t, cl, "faults/loss_drops") == 0 {
		t.Fatal("loss window dropped nothing")
	}
	if count(t, cl, "client/stack/retx/retransmits") == 0 {
		t.Fatal("drops happened but nothing was retransmitted")
	}
	if gap := sent - received; gap > netstack.SendWindow+netstack.RxBufBytes {
		t.Fatalf("retransmission failed to recover: gap %d", gap)
	}
	if ab := count(t, cl, "client/stack/retx/abandoned"); ab != 0 {
		t.Fatalf("abandoned %d segments at 5%% loss", ab)
	}
}

// TestRxDropsRecycledUnderPooling floods a UDP receive buffer so the
// stack exercises its drop paths with pooled packets: every dropped
// segment must be recycled exactly once (a double recycle panics the
// run) and, once the receiver drains, the Rx pool's live-lease gauge
// must return to zero — no leaks on the drop path.
func TestRxDropsRecycledUnderPooling(t *testing.T) {
	cl := NewCluster(Config{Mode: ModeIOctopus})
	var srv *netstack.Socket
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) { srv = s })
	cl.Client.Kernel.Spawn("flood", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, IPServerPF0, 7, eth.ProtoUDP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// No receiver is consuming: twice the socket buffer is sent,
		// so the half beyond it is dropped by the stack.
		for sent := int64(0); sent < 2*netstack.RxBufBytes; sent += 16 * 1024 {
			sock.Send(th, 16*1024)
		}
	})
	cl.Run(20 * time.Millisecond)
	if count(t, cl, "server/stack/rx_drops") == 0 {
		t.Fatal("flood did not overflow the receive buffer")
	}
	// Drain the survivors, then check the pool.
	cl.Server.Kernel.Spawn("drain", 0, func(th *kernel.Thread) {
		srv.SetOwner(th)
		for {
			if _, _, ok := srv.Recv(th); !ok {
				return
			}
		}
	})
	cl.Run(20 * time.Millisecond)
	live, ok := cl.Reg.Value("server/nic/pool/rx/live")
	if !ok {
		t.Fatal("pool/rx/live not registered")
	}
	if live != 0 {
		t.Fatalf("pool/rx live = %v after drain, want 0 (leaked leases)", live)
	}
	if rec, _ := cl.Reg.Value("server/nic/pool/rx/recycled"); rec == 0 {
		t.Fatal("nothing was recycled; the drop path bypassed the pool")
	}
	cl.Drain()
}

// TestConcurrentPFFailureRiddenOut: the failover contract is
// single-failure (DESIGN.md §10) — a second PF dying while the first
// failover is in flight is counted and ridden out, not acted on, and
// retransmission carries the stream across the double-fault window.
func TestConcurrentPFFailureRiddenOut(t *testing.T) {
	cfg := Config{
		Mode:        ModeIOctopus,
		StackParams: retxParams(),
		FaultPlan: &faults.Plan{Events: []faults.Event{
			{At: 10 * time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: 10 * time.Millisecond},
			{At: 12 * time.Millisecond, Kind: faults.LinkFlap, PF: 1, Duration: 5 * time.Millisecond},
		}},
	}
	sent, received, cl := runFaultStream(t, cfg, 60*time.Millisecond)
	if n := count(t, cl, "server/driver/octo0/failover/concurrent_ignored"); n < 1 {
		t.Fatalf("concurrent ignored = %d; the PF1 failure inside PF0's outage was not counted", n)
	}
	failovers := count(t, cl, "server/driver/octo0/failover/failovers")
	failbacks := count(t, cl, "server/driver/octo0/failover/failbacks")
	if failovers != 1 || failbacks != 1 {
		t.Fatalf("failovers=%d failbacks=%d; the second failure must not trigger its own failover",
			failovers, failbacks)
	}
	bound := netstack.SendWindow + netstack.RxBufBytes
	if gap := sent - received; gap > bound {
		t.Fatalf("lost data across the double fault: gap %d > bound %d", gap, bound)
	}
	if ab := count(t, cl, "*/stack/retx/abandoned"); ab != 0 {
		t.Fatalf("abandoned %d segments", ab)
	}
}

// TestParkedOverflowSpillsToPool: descriptors stranded past the parked
// list's cap are recycled (counted as overflow) instead of growing the
// list without bound, and retransmission — not the parked list —
// recovers their payload. The driver's TestParkedListCapsAtMaxParked
// pins the cap itself. Parking is a server-Tx
// phenomenon (a segment transmitted into a dead link whose remap target
// is dead too), so the workload is a server→client stream under the
// double-fault schedule: PF0's flows fail over onto PF1, then PF1 dies
// under them. The stream sends 1 KB messages, so the Tx rings hold
// enough segments to strand more than the cap.
func TestParkedOverflowSpillsToPool(t *testing.T) {
	cl := NewCluster(Config{
		Mode:        ModeIOctopus,
		StackParams: retxParams(),
		FaultPlan: &faults.Plan{Events: []faults.Event{
			{At: 10 * time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: 10 * time.Millisecond},
			{At: 12 * time.Millisecond, Kind: faults.LinkFlap, PF: 1, Duration: 5 * time.Millisecond},
		}},
	})
	var sent, received int64
	cl.Client.Stack.Listen(9, func(s *netstack.Socket) {
		cl.Client.Kernel.Spawn("sink", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Server.Kernel.Spawn("netperf-tx", 0, func(th *kernel.Thread) {
		sock, err := cl.Server.Stack.Dial(th, IPClient, 9, eth.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			sock.Send(th, 1024)
			sent += 1024
		}
	})
	cl.Run(50 * time.Millisecond)
	cl.Drain()
	if n := count(t, cl, "server/driver/octo0/failover/parked_overflow"); n < 1 {
		t.Fatalf("parked overflow = %d; the %d-entry cap never spilled", n, driver.MaxParked)
	}
	bound := netstack.SendWindow + netstack.RxBufBytes
	if gap := sent - received; gap > bound {
		t.Fatalf("overflowed descriptors were not recovered: gap %d > bound %d", gap, bound)
	}
	if ab := count(t, cl, "*/stack/retx/abandoned"); ab != 0 {
		t.Fatalf("abandoned %d segments", ab)
	}
}

// TestOverlappingFaultWindowsRecover runs the gnarly overlap — a short
// PF0 flap whose failback races flushParked, a PF1 failure inside PF0's
// outage, and a loss window over the whole thing — and requires one
// failover, one failback and no abandoned segment per seed, with two
// runs of a seed agreeing on delivered work and every recovery counter.
func TestOverlappingFaultWindowsRecover(t *testing.T) {
	type outcome struct {
		sent, received    int64
		failovers         uint64
		failbacks         uint64
		concurrentIgnored uint64
		reposted          uint64
		abandoned         uint64
	}
	run := func(seed int64) outcome {
		cfg := Config{
			Mode:        ModeIOctopus,
			StackParams: retxParams(),
			FaultPlan: &faults.Plan{
				Seed: seed,
				Events: []faults.Event{
					{At: 10 * time.Millisecond, Kind: faults.LinkFlap, PF: 0, Duration: 3 * time.Millisecond},
					{At: 12 * time.Millisecond, Kind: faults.LinkFlap, PF: 1, Duration: 5 * time.Millisecond},
					{At: 5 * time.Millisecond, Kind: faults.Loss, Dir: faults.ClientToServer, Prob: 0.02, Duration: 20 * time.Millisecond},
				},
			},
		}
		sent, received, cl := runFaultStream(t, cfg, 50*time.Millisecond)
		return outcome{
			sent: sent, received: received,
			failovers:         count(t, cl, "server/driver/octo0/failover/failovers"),
			failbacks:         count(t, cl, "server/driver/octo0/failover/failbacks"),
			concurrentIgnored: count(t, cl, "server/driver/octo0/failover/concurrent_ignored"),
			reposted:          count(t, cl, "server/driver/octo0/failover/reposted"),
			abandoned:         count(t, cl, "*/stack/retx/abandoned"),
		}
	}
	for _, seed := range []int64{1, 99} {
		first := run(seed)
		if again := run(seed); again != first {
			t.Fatalf("seed %d: first run %+v != second run %+v", seed, first, again)
		}
		if first.failovers != 1 || first.failbacks != 1 {
			t.Fatalf("seed %d: failovers=%d failbacks=%d, want 1/1", seed, first.failovers, first.failbacks)
		}
		if first.abandoned != 0 {
			t.Fatalf("seed %d: abandoned %d segments", seed, first.abandoned)
		}
	}
}
