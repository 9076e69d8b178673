package nic

import (
	"testing"
	"time"

	"ioctopus/internal/device"
	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// rig is a test harness: dual-socket server, bifurcated 2-PF NIC wired
// to a frame sink/source.
type rig struct {
	eng  *sim.Engine
	mem  *memsys.System
	nic  *NIC
	far  *farEnd
	wire *eth.Wire
}

// farEnd is the other side of the cable.
type farEnd struct {
	mac  eth.MAC
	got  []*eth.Frame
	wire *eth.Wire
}

func (f *farEnd) Receive(fr *eth.Frame) { f.got = append(f.got, fr) }

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, true)
	pf := pcie.New(e, mem)
	eps := pf.AttachCard(pcie.CardConfig{
		Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1},
	})
	n := New(e, "cx5", eps, DefaultCoalesceDelay)
	far := &farEnd{mac: eth.MACFromInt(0xC11E)}
	w := eth.NewWire(e, "cable", n, far)
	n.AttachWire(w)
	far.wire = w
	return &rig{eng: e, mem: mem, nic: n, far: far, wire: w}
}

// addRxQueue wires a minimal Rx queue on the given PF with buffers on
// the PF's node.
func (r *rig) addRxQueue(pf int, irqNode topology.NodeID, onIRQ func()) *RxQueue {
	p := r.nic.PF(pf)
	ring := device.NewRing(r.mem, p.Node(), 1024, 64)
	var bufs []*memsys.Buffer
	for i := 0; i < 8; i++ {
		bufs = append(bufs, r.mem.NewBuffer(irqNode, 64*1024))
	}
	return p.AddRxQueue(ring, bufs, irqNode, onIRQ)
}

func (r *rig) addTxQueue(pf int, irqNode topology.NodeID, onIRQ func()) *TxQueue {
	p := r.nic.PF(pf)
	desc := device.NewRing(r.mem, p.Node(), 1024, 64)
	comp := device.NewRing(r.mem, p.Node(), 1024, 64)
	return p.AddTxQueue(desc, comp, irqNode, onIRQ)
}

func flow(port uint16) eth.FiveTuple {
	return eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: port, DstPort: 5000, Proto: eth.ProtoTCP}
}

func TestNICConstruction(t *testing.T) {
	r := newRig(t)
	if len(r.nic.PFs()) != 2 {
		t.Fatalf("PFs = %d, want 2", len(r.nic.PFs()))
	}
	if r.nic.PF(0).Node() != 0 || r.nic.PF(1).Node() != 1 {
		t.Fatal("PF nodes wrong")
	}
	if r.nic.PF(0).MAC() == r.nic.PF(1).MAC() {
		t.Fatal("PF MACs must differ")
	}
}

func TestStandardFirmwareSteersByMAC(t *testing.T) {
	r := newRig(t)
	fw := NewStandardFirmware(r.nic)
	r.nic.LoadFirmware(fw)
	r.addRxQueue(0, 0, nil)
	r.addRxQueue(1, 1, nil)
	pf, _ := fw.SteerRx(&eth.Frame{Dst: r.nic.PF(1).MAC(), Flow: flow(1)})
	if pf != 1 {
		t.Fatalf("MPFS steered to PF %d, want 1 (by MAC)", pf)
	}
	pf, _ = fw.SteerRx(&eth.Frame{Dst: r.nic.PF(0).MAC(), Flow: flow(1)})
	if pf != 0 {
		t.Fatalf("MPFS steered to PF %d, want 0", pf)
	}
}

func TestStandardFirmwareARFSWithinPF(t *testing.T) {
	r := newRig(t)
	fw := NewStandardFirmware(r.nic)
	r.nic.LoadFirmware(fw)
	r.addRxQueue(0, 0, nil)
	r.addRxQueue(0, 0, nil) // two queues on PF0
	ft := flow(7)
	fw.ProgramFlow(ft, 0, 1)
	if _, q := fw.SteerRx(&eth.Frame{Dst: r.nic.PF(0).MAC(), Flow: ft}); q != 1 {
		t.Fatalf("ARFS steered to queue %d, want 1", q)
	}
	fw.RemoveFlow(ft)
	if fw.FlowCount() != 0 {
		t.Fatal("RemoveFlow failed")
	}
}

func TestOctoFirmwareSteersByFiveTuple(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	r.addRxQueue(0, 0, nil)
	r.addRxQueue(1, 1, nil)
	ft := flow(9)
	fw.ProgramFlow(ft, 1, 0)
	// Destination MAC is the octoNIC's single MAC; steering ignores it.
	pf, q := fw.SteerRx(&eth.Frame{Dst: r.nic.MAC(), Flow: ft})
	if pf != 1 || q != 0 {
		t.Fatalf("IOctoRFS steered to pf%d/q%d, want pf1/q0", pf, q)
	}
	// Re-program to the other PF: the move §5.3 exercises.
	fw.ProgramFlow(ft, 0, 0)
	if pf, _ = fw.SteerRx(&eth.Frame{Dst: r.nic.MAC(), Flow: ft}); pf != 0 {
		t.Fatalf("IOctoRFS update did not move flow, pf=%d", pf)
	}
}

func TestOctoFirmwareRSSFallbackCoversAllQueues(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	r.addRxQueue(0, 0, nil)
	r.addRxQueue(1, 1, nil)
	seen := map[int]bool{}
	for p := uint16(0); p < 200; p++ {
		pf, _ := fw.SteerRx(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(p)})
		seen[pf] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("RSS fallback did not spread over PFs: %v", seen)
	}
}

func TestRxDatapathDeliversAndCounts(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 3000, Packets: 2})
	r.eng.RunUntilIdle()

	if q.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", q.Pending())
	}
	if interrupted != 1 {
		t.Fatalf("interrupts = %d, want 1", interrupted)
	}
	batch := q.Reap(64)
	if len(batch) != 1 || batch[0].Payload != 3000 || batch[0].Packets != 2 {
		t.Fatalf("batch = %+v", batch)
	}
	if r.nic.PF(0).RxBytes() != 3000 {
		t.Fatalf("pf0 rx bytes = %v", r.nic.PF(0).RxBytes())
	}
	// Payload landed via DDIO on node 0 (local PF, local buffer).
	if batch[0].Buf.CachedAt() != 0 {
		t.Fatal("payload should be DDIO-resident on node 0")
	}
}

func TestRxNAPIGatingCoalescesInterrupts(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	for i := 0; i < 10; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	}
	r.eng.RunUntilIdle()
	if interrupted != 1 {
		t.Fatalf("interrupts = %d, want 1 (NAPI gating + coalescing)", interrupted)
	}
	if q.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", q.Pending())
	}
	// Driver polls and completes; with the queue drained no new IRQ.
	q.Reap(64)
	q.NapiComplete()
	r.eng.RunUntilIdle()
	if interrupted != 1 {
		t.Fatalf("spurious interrupt after NapiComplete: %d", interrupted)
	}
}

func TestRxInterruptRefiresForLateArrivals(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	q.Reap(64)
	q.NapiComplete()
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	if interrupted != 2 {
		t.Fatalf("interrupts = %d, want 2", interrupted)
	}
}

func TestRxDropWhenRingFull(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	p := r.nic.PF(0)
	ring := device.NewRing(r.mem, 0, 2, 64) // tiny ring
	bufs := []*memsys.Buffer{r.mem.NewBuffer(0, 64*1024)}
	q := p.AddRxQueue(ring, bufs, 0, nil)
	fw.ProgramFlow(flow(1), 0, 0)
	for i := 0; i < 5; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
		r.eng.RunUntilIdle()
	}
	if q.drops == 0 || r.nic.rxDrops == 0 {
		t.Fatal("expected drops with a 2-entry ring")
	}
}

func TestTxDatapathSendsFrame(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	q := r.addTxQueue(0, 0, nil)
	buf := r.mem.NewBuffer(0, 64*1024)
	r.mem.CPUWrite(0, buf, 64*1024)
	sent := false
	q.Post(&TxPacket{
		Frags:   []TxFrag{{Buf: buf, Bytes: 64 * 1024}},
		Payload: 64 * 1024,
		Packets: 44,
		Flow:    flow(1),
		Dst:     r.far.mac,
		OnSent:  func() { sent = true },
	})
	r.eng.RunUntilIdle()
	if len(r.far.got) != 1 {
		t.Fatalf("frames at far end = %d, want 1", len(r.far.got))
	}
	f := r.far.got[0]
	if f.Payload != 64*1024 || f.Packets != 44 {
		t.Fatalf("frame = %+v", f)
	}
	if f.Src != r.nic.MAC() {
		t.Fatal("octo firmware should stamp the single device MAC")
	}
	// Completion reaped by the driver.
	batch := q.Reap(64)
	if len(batch) != 1 {
		t.Fatalf("reaped = %d", len(batch))
	}
	if sent {
		t.Fatal("OnSent is the driver's to call after reaping")
	}
	if r.nic.PF(0).txBytes != 64*1024 {
		t.Fatalf("pf0 tx bytes = %v", r.nic.PF(0).txBytes)
	}
}

func TestTxStandardFirmwareStampsPFMAC(t *testing.T) {
	r := newRig(t)
	fw := NewStandardFirmware(r.nic)
	r.nic.LoadFirmware(fw)
	q := r.addTxQueue(1, 1, nil)
	buf := r.mem.NewBuffer(1, 1500)
	q.Post(&TxPacket{
		Frags: []TxFrag{{Buf: buf, Bytes: 1500}}, Payload: 1500, Packets: 1,
		Flow: flow(1), Dst: r.far.mac,
	})
	r.eng.RunUntilIdle()
	if r.far.got[0].Src != r.nic.PF(1).MAC() {
		t.Fatal("standard firmware should stamp the PF's own MAC")
	}
}

func TestIOctoSGReadsFragmentsLocally(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, true) // SG enabled
	r.nic.LoadFirmware(fw)
	q := r.addTxQueue(0, 0, nil)
	// A packet spanning both nodes (the sendfile case of §3.3).
	b0 := r.mem.NewBuffer(0, 4096)
	b1 := r.mem.NewBuffer(1, 4096)
	q.Post(&TxPacket{
		Frags:   []TxFrag{{Buf: b0, Bytes: 4096}, {Buf: b1, Bytes: 4096}},
		Payload: 8192, Packets: 6, Flow: flow(1), Dst: r.far.mac,
	})
	r.eng.RunUntilIdle()
	// With SG, the node-1 fragment is read by PF1: no QPI crossing.
	if got := r.mem.Fabric().Pipe(1, 0).DiscreteBytes(); got != 0 {
		t.Fatalf("IOctoSG let %v bytes cross the interconnect", got)
	}
	if r.nic.PF(1).Endpoint().DMAReadBytes() != 4096 {
		t.Fatalf("pf1 should have read the node-1 fragment, read %v", r.nic.PF(1).Endpoint().DMAReadBytes())
	}
}

func TestWithoutSGFragmentsCrossInterconnect(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false) // SG disabled, like the prototype
	r.nic.LoadFirmware(fw)
	q := r.addTxQueue(0, 0, nil)
	b1 := r.mem.NewBuffer(1, 4096)
	q.Post(&TxPacket{
		Frags:   []TxFrag{{Buf: b1, Bytes: 4096}},
		Payload: 4096, Packets: 3, Flow: flow(1), Dst: r.far.mac,
	})
	r.eng.RunUntilIdle()
	if got := r.mem.Fabric().Pipe(1, 0).DiscreteBytes(); got == 0 {
		t.Fatal("remote fragment should cross QPI without IOctoSG")
	}
}

func TestZeroCoalesceDelayInterruptsImmediately(t *testing.T) {
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, true)
	pcf := pcie.New(e, mem)
	eps := pcf.AttachCard(pcie.CardConfig{Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16, Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1}})
	n := New(e, "cx5", eps, 0)
	fw := NewOctoFirmware(n, false)
	n.LoadFirmware(fw)
	far := &farEnd{mac: eth.MACFromInt(0xC11E)}
	n.AttachWire(eth.NewWire(e, "w", n, far))
	var irqAt sim.Time
	ring := device.NewRing(mem, 0, 1024, 64)
	bufs := []*memsys.Buffer{mem.NewBuffer(0, 64*1024)}
	n.PF(0).AddRxQueue(ring, bufs, 0, func() { irqAt = e.Now() })
	fw.ProgramFlow(flow(1), 0, 0)
	n.Receive(&eth.Frame{Dst: n.MAC(), Flow: flow(1), Payload: 64, Packets: 1})
	e.RunUntilIdle()
	if irqAt == 0 {
		t.Fatal("no interrupt delivered")
	}
	if irqAt > sim.Time(5*time.Microsecond) {
		t.Fatalf("immediate interrupt at %v, too late", irqAt)
	}
}

func TestCoalesceDelayHoldsInterruptBack(t *testing.T) {
	r := newRig(t) // default 8us coalescing
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	var irqAt sim.Time
	r.addRxQueue(0, 0, func() { irqAt = r.eng.Now() })
	fw.ProgramFlow(flow(1), 0, 0)
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 64, Packets: 1})
	r.eng.RunUntilIdle()
	if irqAt < sim.Time(8*time.Microsecond) {
		t.Fatalf("interrupt at %v, want held back >= 8us", irqAt)
	}
}

// TestPolledRxSuppressesInterruptsAndCoalesce: a queue in polled mode
// delivers completions to the ring but never interrupts — the pending
// coalesce timer is cancelled on entry and no new one is armed.
func TestPolledRxSuppressesInterruptsAndCoalesce(t *testing.T) {
	r := newRig(t) // default 8us coalescing
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	// Arm the coalesce timer with one arrival, then enter polled mode
	// before it expires: the window must die with the mode switch.
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 64, Packets: 1})
	q.SetPolled(true)
	if !q.Polled() {
		t.Fatal("SetPolled(true) did not stick")
	}
	for i := 0; i < 5; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	}
	r.eng.RunUntilIdle()
	if interrupted != 0 {
		t.Fatalf("interrupts = %d in polled mode, want 0", interrupted)
	}
	if q.Pending() != 6 {
		t.Fatalf("pending = %d, want 6 (ring still fills under polling)", q.Pending())
	}
	if got := len(q.Reap(64)); got != 6 {
		t.Fatalf("Poll drained %d, want 6", got)
	}
}

// TestPolledRxExitFiresExactlyOnce: completions that landed during a
// polled window fire the interrupt exactly once when interrupts are
// re-enabled, and the NAPI re-arm cycle is undisturbed afterwards.
func TestPolledRxExitFiresExactlyOnce(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	q.SetPolled(true)
	for i := 0; i < 4; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	}
	r.eng.RunUntilIdle()
	if interrupted != 0 {
		t.Fatalf("interrupts = %d before exit, want 0", interrupted)
	}
	q.SetPolled(false)
	r.eng.RunUntilIdle()
	if interrupted != 1 {
		t.Fatalf("interrupts = %d after leaving polled mode, want exactly 1", interrupted)
	}
	// The normal NAPI cycle resumes: drain, complete, next arrival
	// refires.
	q.Reap(64)
	q.NapiComplete()
	r.eng.RunUntilIdle()
	if interrupted != 1 {
		t.Fatalf("spurious interrupt after NapiComplete: %d", interrupted)
	}
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	if interrupted != 2 {
		t.Fatalf("interrupts = %d after fresh arrival, want 2 (re-arm undisturbed)", interrupted)
	}
}

// TestPolledRxExitWithEmptyRingStaysQuiet: leaving polled mode with
// nothing pending must not invent an interrupt.
func TestPolledRxExitWithEmptyRingStaysQuiet(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	fw.ProgramFlow(flow(1), 0, 0)

	q.SetPolled(true)
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	q.Reap(64) // drained inside the polled window
	q.SetPolled(false)
	r.eng.RunUntilIdle()
	if interrupted != 0 {
		t.Fatalf("interrupts = %d after clean polled exit, want 0", interrupted)
	}
}

// TestPolledTxSuppressesAndRefiresOnce: the Tx mirror — completions
// during a polled window are reapable without interrupts, and
// re-enabling fires once for what is still unreaped.
func TestPolledTxSuppressesAndRefiresOnce(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addTxQueue(0, 0, func() { interrupted++ })
	buf := r.mem.NewBuffer(0, 64*1024)
	r.mem.CPUWrite(0, buf, 64*1024)

	q.SetPolled(true)
	for i := 0; i < 2; i++ {
		q.Post(&TxPacket{
			Frags: []TxFrag{{Buf: buf, Bytes: 1500}}, Payload: 1500, Packets: 1,
			Flow: flow(1), Dst: r.far.mac,
		})
	}
	r.eng.RunUntilIdle()
	if interrupted != 0 {
		t.Fatalf("tx interrupts = %d in polled mode, want 0", interrupted)
	}
	q.SetPolled(false)
	r.eng.RunUntilIdle()
	if interrupted != 1 {
		t.Fatalf("tx interrupts = %d after leaving polled mode, want exactly 1", interrupted)
	}
	if got := len(q.Reap(64)); got != 2 {
		t.Fatalf("reaped %d completions, want 2", got)
	}
}

// TestPolledModeLeavesZeroCoalesceUntouched: after a polled window on a
// CoalesceDelay=0 NIC, the immediate-interrupt behavior is exactly as
// before the window — the polled flag must not linger in the timing
// decision.
func TestPolledModeLeavesZeroCoalesceUntouched(t *testing.T) {
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, true)
	pcf := pcie.New(e, mem)
	eps := pcf.AttachCard(pcie.CardConfig{Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16, Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1}})
	n := New(e, "cx5", eps, 0)
	fw := NewOctoFirmware(n, false)
	n.LoadFirmware(fw)
	far := &farEnd{mac: eth.MACFromInt(0xC11E)}
	n.AttachWire(eth.NewWire(e, "w", n, far))
	var irqAt sim.Time
	ring := device.NewRing(mem, 0, 1024, 64)
	bufs := []*memsys.Buffer{mem.NewBuffer(0, 64*1024)}
	q := n.PF(0).AddRxQueue(ring, bufs, 0, func() { irqAt = e.Now() })
	fw.ProgramFlow(flow(1), 0, 0)

	q.SetPolled(true)
	n.Receive(&eth.Frame{Dst: n.MAC(), Flow: flow(1), Payload: 64, Packets: 1})
	e.RunUntilIdle()
	if irqAt != 0 {
		t.Fatal("polled window interrupted on a zero-coalesce NIC")
	}
	q.Reap(64)
	q.SetPolled(false)
	e.RunUntilIdle()

	before := e.Now()
	n.Receive(&eth.Frame{Dst: n.MAC(), Flow: flow(1), Payload: 64, Packets: 1})
	e.RunUntilIdle()
	if irqAt <= before {
		t.Fatal("no interrupt after the polled window ended")
	}
	if irqAt-before > sim.Time(5*time.Microsecond) {
		t.Fatalf("post-window interrupt took %v, want immediate (CoalesceDelay=0)", irqAt-before)
	}
}
