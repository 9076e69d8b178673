package pcie

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/metrics"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, true)
	return e, New(e, mem)
}

// dramBytes reads one of a node's DRAM byte counters ("read" or
// "write") through the memory system's metrics.
func dramBytes(t *testing.T, mem *memsys.System, node int, dir string) float64 {
	t.Helper()
	r := metrics.NewRegistry()
	mem.RegisterMetrics(r)
	v, ok := r.Value(fmt.Sprintf("node%d/dram_%s_bytes", node, dir))
	if !ok {
		t.Fatalf("no node%d DRAM %s counter", node, dir)
	}
	return v
}

// lanes infers a Gen3 endpoint's link width from how long its uplink
// takes to serialize 1 GB.
func lanes(ep *Endpoint) int {
	const n = 1e9
	ser := ep.toHost.Latency(n) - ep.toHost.Latency(0)
	return int(math.Round(n / ser.Seconds() / perLaneBandwidth(Gen3)))
}

func TestLinkBandwidth(t *testing.T) {
	x8 := LinkBandwidth(Gen3, 8)
	x16 := LinkBandwidth(Gen3, 16)
	if x8 != 8*0.985e9 {
		t.Fatalf("x8 Gen3 = %v, want 7.88 GB/s", x8)
	}
	if x16 != 2*x8 {
		t.Fatal("x16 should be twice x8")
	}
	if LinkBandwidth(Gen4, 8) <= x8 {
		t.Fatal("Gen4 should beat Gen3")
	}
}

func TestLinkBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero lanes should panic")
		}
	}()
	LinkBandwidth(Gen3, 0)
}

func TestDMAWriteLandsViaDDIO(t *testing.T) {
	e, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	b := f.mem.NewBuffer(0, 1500)
	var done sim.Time
	ep.DMAWrite(b, 1500, func() { done = e.Now() })
	e.RunUntilIdle()
	if done == 0 {
		t.Fatal("DMA write never completed")
	}
	if b.CachedAt() != 0 || !b.InDDIO() {
		t.Fatal("local DMA write should allocate in DDIO ways")
	}
	if ep.DMAWriteBytes() != 1500 {
		t.Fatalf("write bytes = %v", ep.DMAWriteBytes())
	}
}

func TestDMAWriteSerializesOnLink(t *testing.T) {
	e, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	b1 := f.mem.NewBuffer(0, 64*1024)
	b2 := f.mem.NewBuffer(0, 64*1024)
	var t1, t2 sim.Time
	ep.DMAWrite(b1, 64*1024, func() { t1 = e.Now() })
	ep.DMAWrite(b2, 64*1024, func() { t2 = e.Now() })
	e.RunUntilIdle()
	// 64 KiB at 7.88 GB/s is ~8.3 us; the second must wait for the first.
	if t2-t1 < sim.Time(7*time.Microsecond) {
		t.Fatalf("transfers not serialized: t1=%v t2=%v", t1, t2)
	}
}

func TestRemoteDMAWriteCrossesInterconnect(t *testing.T) {
	e, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	b := f.mem.NewBuffer(1, 1500) // homed on node 1
	ep.DMAWrite(b, 1500, nil)
	e.RunUntilIdle()
	if f.mem.Fabric().Pipe(0, 1).DiscreteBytes() != 1500 {
		t.Fatal("remote DMA write should cross QPI")
	}
	if dramBytes(t, f.mem, 1, "write") != 1500 {
		t.Fatal("remote DMA write should land in DRAM")
	}
}

func TestDMAReadServesFromLLC(t *testing.T) {
	e, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	b := f.mem.NewBuffer(0, 1500)
	f.mem.CPUWrite(0, b, 1500)
	before := dramBytes(t, f.mem, 0, "read")
	var done sim.Time
	ep.DMARead(b, 1500, func() { done = e.Now() })
	e.RunUntilIdle()
	if done == 0 {
		t.Fatal("DMA read never completed")
	}
	if dramBytes(t, f.mem, 0, "read") != before {
		t.Fatal("local cached DMA read should not touch DRAM")
	}
	if ep.DMAReadBytes() != 1500 {
		t.Fatalf("read bytes = %v", ep.DMAReadBytes())
	}
}

func TestMMIOLocalVsRemote(t *testing.T) {
	_, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	local := ep.MMIOWrite(0)
	remote := ep.MMIOWrite(1)
	if remote <= local {
		t.Fatalf("remote MMIO (%v) should cost more than local (%v)", remote, local)
	}
	if ep.MMIOOps() != 2 {
		t.Fatalf("mmio ops = %d", ep.MMIOOps())
	}
}

func TestInterruptDelivery(t *testing.T) {
	e, f := newFabric(t)
	ep := f.NewEndpoint("nic", 0, Gen3, 8)
	var localAt, remoteAt sim.Time
	ep.Interrupt(0, func() { localAt = e.Now() })
	e.RunUntilIdle()
	e2, f2 := newFabric(t)
	ep2 := f2.NewEndpoint("nic", 0, Gen3, 8)
	ep2.Interrupt(1, func() { remoteAt = e2.Now() })
	e2.RunUntilIdle()
	if remoteAt <= localAt {
		t.Fatalf("remote interrupt (%v) should be slower than local (%v)", remoteAt, localAt)
	}
}

func TestAttachCardDirect(t *testing.T) {
	_, f := newFabric(t)
	eps := f.AttachCard(CardConfig{Name: "nic", Gen: Gen3, TotalLanes: 16, Wiring: WiringDirect, Nodes: []topology.NodeID{0}})
	if len(eps) != 1 || lanes(eps[0]) != 16 || eps[0].Node() != 0 {
		t.Fatalf("direct wiring wrong: %+v", eps)
	}
}

func TestAttachCardBifurcated(t *testing.T) {
	_, f := newFabric(t)
	eps := f.AttachCard(CardConfig{Name: "octo", Gen: Gen3, TotalLanes: 16, Wiring: WiringBifurcated, Nodes: []topology.NodeID{0, 1}})
	if len(eps) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(eps))
	}
	for i, ep := range eps {
		if lanes(ep) != 8 {
			t.Fatalf("pf%d lanes = %d, want 8", i, lanes(ep))
		}
		if ep.Node() != topology.NodeID(i) {
			t.Fatalf("pf%d on node %d", i, ep.Node())
		}
	}
}

func TestAttachCardExtenderKeepsFullWidth(t *testing.T) {
	_, f := newFabric(t)
	eps := f.AttachCard(CardConfig{Name: "ext", Gen: Gen3, TotalLanes: 16, Wiring: WiringExtender, Nodes: []topology.NodeID{0, 1}})
	for _, ep := range eps {
		if lanes(ep) != 16 {
			t.Fatalf("extender endpoint lanes = %d, want 16", lanes(ep))
		}
	}
}

func TestAttachCardSwitchAddsLatency(t *testing.T) {
	e, f := newFabric(t)
	direct := f.AttachCard(CardConfig{Name: "d", Gen: Gen3, TotalLanes: 16, Wiring: WiringDirect, Nodes: []topology.NodeID{0}})[0]
	switched := f.AttachCard(CardConfig{Name: "s", Gen: Gen3, TotalLanes: 16, Wiring: WiringSwitch, Nodes: []topology.NodeID{0, 1}})[0]
	b1 := f.mem.NewBuffer(0, 64)
	b2 := f.mem.NewBuffer(0, 64)
	var tDirect, tSwitch sim.Time
	direct.DMAWrite(b1, 64, func() { tDirect = e.Now() })
	e.RunUntilIdle()
	start := e.Now()
	switched.DMAWrite(b2, 64, func() { tSwitch = e.Now() - start })
	e.RunUntilIdle()
	if tSwitch <= tDirect {
		t.Fatalf("switch hop should add latency: direct=%v switch=%v", tDirect, tSwitch)
	}
}

func TestAttachCardValidation(t *testing.T) {
	_, f := newFabric(t)
	for _, cfg := range []CardConfig{
		{Name: "no-lanes", Gen: Gen3, TotalLanes: 0, Wiring: WiringDirect, Nodes: []topology.NodeID{0}},
		{Name: "no-nodes", Gen: Gen3, TotalLanes: 16, Wiring: WiringDirect},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %q should panic", cfg.Name)
				}
			}()
			f.AttachCard(cfg)
		}()
	}
}

func TestWiringString(t *testing.T) {
	names := map[Wiring]string{
		WiringDirect: "direct", WiringBifurcated: "bifurcated",
		WiringExtender: "extender", WiringRiser: "riser", WiringSwitch: "switch",
	}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("%d.String() = %q, want %q", w, w.String(), want)
		}
	}
}
