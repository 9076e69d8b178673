package driver

import (
	"testing"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// drvRig assembles a host with a bifurcated NIC and no peer: enough to
// exercise driver-side behaviour directly.
type drvRig struct {
	eng *sim.Engine
	k   *kernel.Kernel
	mem *memsys.System
	nic *nic.NIC
	st  *netstack.Stack
	far *sinkPort
}

type sinkPort struct {
	mac eth.MAC
	got []*eth.Frame
}

func (s *sinkPort) Receive(f *eth.Frame) { s.got = append(s.got, f) }

func newDrvRig(t *testing.T) *drvRig {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.DualBroadwell()
	fab := interconnect.New(e, topo)
	mem := memsys.New(e, topo, fab, true)
	pc := pcie.New(e, mem)
	eps := pc.AttachCard(pcie.CardConfig{
		Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1},
	})
	n := nic.New(e, "cx5", eps, nic.DefaultCoalesceDelay)
	k := kernel.New(e, topo, mem)
	net := netstack.NewNetwork()
	st := netstack.NewStack(k, "host", net, netstack.Params{})
	far := &sinkPort{mac: eth.MACFromInt(0xFA5)}
	n.AttachWire(eth.NewWire(e, "w", n, far))
	return &drvRig{eng: e, k: k, mem: mem, nic: n, st: st, far: far}
}

func TestStandardDriverQueueLayout(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	d := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	if len(d.pairs) != 28 {
		t.Fatalf("tx queues = %d, want one per core", len(d.pairs))
	}
	// Queue i serves core i; its rings live on core i's node.
	for c := 0; c < 28; c++ {
		q := d.pairs[c].rx
		wantNode := r.k.Topology().NodeOf(topology.CoreID(c))
		if q.CompletionRing().Buffer().Home() != wantNode {
			t.Fatalf("core %d completion ring homed on %d, want %d",
				c, q.CompletionRing().Buffer().Home(), wantNode)
		}
		if q.IRQNode() != wantNode {
			t.Fatalf("core %d irq targets node %d, want %d", c, q.IRQNode(), wantNode)
		}
	}
	// All queues belong to PF0 under the standard driver.
	if len(r.nic.PF(0).RxQueues()) != 28 || len(r.nic.PF(1).RxQueues()) != 0 {
		t.Fatal("standard driver must put every queue on its own PF")
	}
	e := r.eng
	e.Drain()
}

func TestOctoDriverQueuesAreSocketLocal(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewOctoFirmware(r.nic, false))
	d := NewOcto(r.k, r.mem, r.nic, "octo0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	// 14 queues per PF: each core's queue lives on its local PF.
	if len(r.nic.PF(0).RxQueues()) != 14 || len(r.nic.PF(1).RxQueues()) != 14 {
		t.Fatalf("queue split = %d/%d, want 14/14",
			len(r.nic.PF(0).RxQueues()), len(r.nic.PF(1).RxQueues()))
	}
	for c := 0; c < 28; c++ {
		tx := d.pairs[c].tx
		if tx.PF().Node() != r.k.Topology().NodeOf(topology.CoreID(c)) {
			t.Fatalf("core %d tx queue on PF node %d", c, tx.PF().Node())
		}
	}
	r.eng.Drain()
}

func TestOctoSteerFlowGoesThroughAsyncWorker(t *testing.T) {
	r := newDrvRig(t)
	fw := nic.NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	d := NewOcto(r.k, r.mem, r.nic, "octo0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	ft := eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: eth.ProtoTCP}
	d.SteerFlow(ft, 20) // core 20 = node 1
	// The device table write is asynchronous: not yet applied.
	if fw.FlowCount() != 0 {
		t.Fatal("MPFS update should be deferred to the worker")
	}
	r.eng.RunFor(time.Millisecond)
	if fw.FlowCount() != 1 {
		t.Fatal("worker did not apply the update")
	}
	if d.updatesApplied != 1 {
		t.Fatalf("updates applied = %d", d.updatesApplied)
	}
	// Steering the same flow to the same place refreshes without a new
	// device write.
	d.SteerFlow(ft, 21) // same node -> same PF+queue? no: queue differs per core
	r.eng.RunFor(time.Millisecond)
	if d.updatesApplied != 2 {
		t.Fatalf("cross-core same-node steer should still update queue: %d", d.updatesApplied)
	}
	d.SteerFlow(ft, 21) // identical: refresh only
	r.eng.RunFor(time.Millisecond)
	if d.updatesApplied != 2 {
		t.Fatal("identical steer must not push a device update")
	}
	r.eng.Drain()
}

// TestOctoRuleExpiry runs the real 30 s expiry on its 1 s scan: an
// unrefreshed rule survives every scan up to 30 s and is gone after the
// 31 s one. With no traffic the scanner is nearly the only event source,
// so half a minute of simulated time costs a few dozen events.
func TestOctoRuleExpiry(t *testing.T) {
	r := newDrvRig(t)
	fw := nic.NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	d := NewOcto(r.k, r.mem, r.nic, "octo0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	ft := eth.FiveTuple{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6, Proto: eth.ProtoTCP}
	d.SteerFlow(ft, 0)
	r.eng.RunFor(2 * time.Millisecond)
	if fw.FlowCount() != 1 || len(d.rules) != 1 {
		t.Fatal("rule not installed")
	}
	r.eng.RunFor(ruleExpiry - expiryScanPeriod/2 - 2*time.Millisecond)
	if fw.FlowCount() != 1 || len(d.rules) != 1 || d.rulesExpired != 0 {
		t.Fatalf("rule expired before %v: fw=%d drv=%d expired=%d", ruleExpiry, fw.FlowCount(), len(d.rules), d.rulesExpired)
	}
	r.eng.RunFor(2 * expiryScanPeriod)
	if fw.FlowCount() != 0 || len(d.rules) != 0 {
		t.Fatalf("stale rule not expired: fw=%d drv=%d", fw.FlowCount(), len(d.rules))
	}
	if d.rulesExpired != 1 {
		t.Fatalf("expired = %d", d.rulesExpired)
	}
	r.eng.Drain()
}

// removeLog records the order in which the driver removes device rules.
type removeLog struct {
	*nic.OctoFirmware
	removed []eth.FiveTuple
}

func (l *removeLog) RemoveFlow(ft eth.FiveTuple) {
	l.removed = append(l.removed, ft)
	l.OctoFirmware.RemoveFlow(ft)
}

func TestOctoExpireNowDeterministic(t *testing.T) {
	// One expiry scan removes every stale rule, from the driver table
	// and the device alike, in sorted 5-tuple order (never map order,
	// which would leak into the scanner's event schedule).
	r := newDrvRig(t)
	fw := &removeLog{OctoFirmware: nic.NewOctoFirmware(r.nic, false)}
	r.nic.LoadFirmware(fw)
	d := NewOcto(r.k, r.mem, r.nic, "octo0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	for i := uint16(0); i < 50; i++ {
		port := i * 17 % 50 // every port once, out of order
		d.SteerFlow(eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: port, DstPort: 4, Proto: eth.ProtoTCP}, 0)
	}
	// Every scan up to the one after ruleExpiry finds nothing stale.
	r.eng.RunFor(ruleExpiry + expiryScanPeriod/2)
	if fw.FlowCount() != 50 || len(d.rules) != 50 {
		t.Fatalf("before the first stale scan: fw=%d drv=%d, want 50 installed", fw.FlowCount(), len(d.rules))
	}
	r.eng.RunFor(expiryScanPeriod)
	if len(d.rules) != 0 || fw.FlowCount() != 0 || d.rulesExpired != 50 {
		t.Fatalf("after one scan: drv=%d fw=%d expired=%d, want 0/0/50",
			len(d.rules), fw.FlowCount(), d.rulesExpired)
	}
	if len(fw.removed) != 50 {
		t.Fatalf("device saw %d removals, want 50", len(fw.removed))
	}
	for i, ft := range fw.removed {
		if ft.SrcPort != uint16(i) {
			t.Fatalf("removal %d was port %d, want sorted order", i, ft.SrcPort)
		}
	}
	r.eng.Drain()
}

func TestBondHashesFlowsAcrossMembers(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	d0 := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", Params{}, DatapathInterrupt)
	d1 := NewStandard(r.k, r.mem, r.nic.PF(1), "eth1", Params{}, DatapathInterrupt)
	d0.Bind(r.st)
	d1.Bind(r.st)
	bond := NewBond("bond0", d0, d1)
	if bond.HWAddr() != d0.HWAddr() {
		t.Fatal("bond should adopt the first member's MAC")
	}
	// The member is a pure function of the flow hash: the host cannot
	// re-steer a flow between members (the §2.5 argument).
	hits := map[string]int{}
	for p := uint16(0); p < 64; p++ {
		ft := eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: p, DstPort: 80, Proto: eth.ProtoTCP}
		hits[bond.member(ft).Name()]++
		if bond.member(ft) != bond.member(ft) {
			t.Fatal("member must be stable per flow")
		}
	}
	if hits["eth0"] == 0 || hits["eth1"] == 0 {
		t.Fatalf("bond did not spread flows: %v", hits)
	}
	r.eng.Drain()
}

// xmitAndPark transmits pkt on txq through d's Xmit and parks th until
// the driver has posted it.
func xmitAndPark(d netstack.NetDevice, th *kernel.Thread, pkt *netstack.Packet, txq int) {
	d.Xmit(th, pkt, txq, th.WakeFunc())
	th.Park()
}

func TestBondXmitDelegates(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	d0 := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", Params{}, DatapathInterrupt)
	d1 := NewStandard(r.k, r.mem, r.nic.PF(1), "eth1", Params{}, DatapathInterrupt)
	d0.Bind(r.st)
	d1.Bind(r.st)
	bond := NewBond("bond0", d0, d1)
	buf := r.mem.NewBuffer(0, 1500)
	done := 0
	r.k.Spawn("tx", 0, func(th *kernel.Thread) {
		for p := uint16(0); p < 8; p++ {
			xmitAndPark(bond, th, &netstack.Packet{
				Flow:    eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: p, DstPort: 80, Proto: eth.ProtoTCP},
				DstMAC:  r.far.mac,
				Payload: 1500, Packets: 1,
				Frags: []netstack.Frag{{Buf: buf, Bytes: 1500}},
			}, bond.TxQueueForCore(0))
			done++
		}
	})
	r.eng.RunFor(10 * time.Millisecond)
	if done != 8 {
		t.Fatalf("xmit loop incomplete: %d", done)
	}
	if len(r.far.got) != 8 {
		t.Fatalf("frames at far end = %d, want 8", len(r.far.got))
	}
	// Both PFs transmitted (flows hash across members): standard
	// firmware sends each frame from its PF's own MAC.
	from := map[eth.MAC]int{}
	for _, f := range r.far.got {
		from[f.Src]++
	}
	if from[r.nic.PF(0).MAC()] == 0 || from[r.nic.PF(1).MAC()] == 0 {
		t.Fatalf("frames per source MAC = %v", from)
	}
	r.eng.Drain()
}

func TestDriverTxInFlightTracksPostedWork(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	d := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	buf := r.mem.NewBuffer(0, 64*1024)
	r.k.Spawn("tx", 0, func(th *kernel.Thread) {
		xmitAndPark(d, th, &netstack.Packet{
			Flow:    eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 80, Proto: eth.ProtoTCP},
			DstMAC:  r.far.mac,
			Payload: 64 * 1024, Packets: 44,
			Frags: []netstack.Frag{{Buf: buf, Bytes: 64 * 1024}},
		}, 0)
	})
	r.eng.RunFor(5 * time.Microsecond)
	if d.TxInFlight(0) != 1 {
		t.Fatalf("in flight = %d during transmit", d.TxInFlight(0))
	}
	r.eng.RunFor(10 * time.Millisecond)
	if d.TxInFlight(0) != 0 {
		t.Fatalf("in flight = %d after completion reap", d.TxInFlight(0))
	}
	if d.TxInFlight(-1) != 0 || d.TxInFlight(999) != 0 {
		t.Fatal("out-of-range queue should report 0")
	}
	r.eng.Drain()
}

// TestParkedListCapsAtMaxParked: during a total outage (PF0 failed
// over onto PF1, then PF1 died too) segments whose completions come
// back Dropped are parked up to MaxParked, and the rest are given up
// and counted; PF0's failback re-posts every parked segment.
func TestParkedListCapsAtMaxParked(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewOctoFirmware(r.nic, false))
	d := NewOcto(r.k, r.mem, r.nic, "octo0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	r.nic.SetPFLink(0, false)
	r.eng.RunFor(2 * linkEventDelay) // failover onto PF1
	r.nic.SetPFLink(1, false)
	r.eng.RunFor(2 * linkEventDelay) // ridden out: no live PF is left
	buf := r.mem.NewBuffer(0, 64)
	const extra = 5
	for i := 0; i < MaxParked+extra; i++ {
		pkt := r.nic.LeaseTxPacket()
		pkt.Frags = append(pkt.Frags, nic.TxFrag{Buf: buf, Bytes: 64})
		pkt.Payload, pkt.Packets, pkt.Descriptors = 64, 1, 1
		if took := d.repostDropped(d.pairs[0], pkt); took != (i < MaxParked) {
			t.Fatalf("segment %d: driver took ownership %v with %d parked", i, took, len(d.parked))
		}
	}
	if len(d.parked) != MaxParked || d.parkedOverflow != extra {
		t.Fatalf("parked %d, overflow %d; want the %d cap and %d given up", len(d.parked), d.parkedOverflow, MaxParked, extra)
	}
	r.nic.SetPFLink(0, true)
	r.eng.RunFor(2 * linkEventDelay) // failback
	if len(d.parked) != 0 || d.reposted != MaxParked {
		t.Fatalf("after failback: %d still parked, %d re-posted, want 0 and %d", len(d.parked), d.reposted, MaxParked)
	}
	r.eng.Drain()
}
