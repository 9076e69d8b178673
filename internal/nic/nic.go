// Package nic models a 100 Gb/s Ethernet adapter with one or more PCIe
// physical functions (PFs), after the Mellanox ConnectX-5 with a
// bifurcated PCIe interface the paper prototypes on.
//
// The device side implements:
//
//   - per-PF receive and transmit queues backed by descriptor rings in
//     host memory (package device), with DMA through the PF's PCIe
//     endpoint so all NUDMA effects apply;
//   - an integrated multi-PF Ethernet switch (MPFS) steering arriving
//     frames to a PF, and per-PF ARFS tables steering to a queue;
//   - TSO-style segment transmission and NAPI-compatible interrupt
//     moderation;
//   - two firmwares (package-local implementations of Firmware): the
//     standard one, where each PF has its own MAC and is a separate
//     logical NIC, and the IOctopus firmware, where the device exposes a
//     single MAC and the MPFS maps flow 5-tuples to PFs (IOctoRFS, §4.1).
package nic

import (
	"fmt"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Device constants of the modelled ConnectX-5.
const (
	// MaxSegment is the largest TSO segment accepted from the host;
	// the stack cuts every send into segments of at most this size.
	MaxSegment int64 = 64 * 1024
	// RxRingEntries / TxRingEntries size each queue's rings.
	RxRingEntries int = 1024
	TxRingEntries int = 1024
	// DescBytes is the descriptor/completion entry size.
	DescBytes int64 = 64
	// RxBufBytes / RxBufCount size each Rx queue's packet-buffer pool,
	// approximating a 1024 x MTU real ring's footprint.
	RxBufBytes int64 = 64 * 1024
	RxBufCount int   = 40
)

// DefaultCoalesceDelay is the adaptive interrupt-moderation holdoff
// with coalescing on.
const DefaultCoalesceDelay = 8 * time.Microsecond

// NIC is the adapter: one physical port, one or more PFs.
type NIC struct {
	eng  *sim.Engine
	name string
	mac  eth.MAC // the port's primary (octo: only) MAC
	pfs  []*PF
	fw   Firmware
	wire *eth.Wire
	// coalesceDelay is the interrupt-moderation holdoff; zero fires an
	// interrupt as soon as a completion lands and NAPI is idle (the
	// "adaptive interrupt coalescing disabled" latency setup).
	coalesceDelay time.Duration

	// Packet-object pools (see pool.go): Rx/Tx packet free lists plus
	// the frame pool backing this NIC's transmissions.
	rxPool *sim.Pool[RxPacket]
	txPool *sim.Pool[TxPacket]
	frames *eth.FramePool

	rxDrops   uint64
	rxFrames  uint64
	rxPackets uint64

	// linkHooks fire after a PF's link state changes (driver failover).
	linkHooks []func(pf int, up bool)
	// fwResetHooks fire after a firmware reset wipes the steering
	// tables (driver rule replay).
	fwResetHooks []func()
}

// New builds a NIC over the given PCIe endpoints (one per PF, in PF
// order), moderating interrupts with coalesceDelay. The firmware is
// installed separately with LoadFirmware.
func New(e *sim.Engine, name string, eps []*pcie.Endpoint, coalesceDelay time.Duration) *NIC {
	if len(eps) == 0 {
		panic("nic: need at least one PF endpoint")
	}
	pooled := PoolingEnabled()
	n := &NIC{
		eng:           e,
		name:          name,
		mac:           eth.MACFromInt(hashName(name)),
		coalesceDelay: coalesceDelay,
		rxPool:        sim.NewPool(pooled, newRxPacket, resetRxPacket),
		txPool:        sim.NewPool(pooled, newTxPacket, resetTxPacket),
		frames:        eth.NewFramePool(pooled),
	}
	for i, ep := range eps {
		n.pfs = append(n.pfs, &PF{
			nic:    n,
			index:  i,
			ep:     ep,
			mac:    eth.MACFromInt(hashName(name) + uint64(i)),
			linkUp: true,
		})
	}
	return n
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h & 0xffffffffff
}

// Name returns the device name.
func (n *NIC) Name() string { return n.name }

// MAC returns the port's primary address.
func (n *NIC) MAC() eth.MAC { return n.mac }

// PFs returns the physical functions.
func (n *NIC) PFs() []*PF { return n.pfs }

// PF returns one physical function.
func (n *NIC) PF(i int) *PF {
	if i < 0 || i >= len(n.pfs) {
		panic(fmt.Sprintf("nic %s: no PF %d", n.name, i))
	}
	return n.pfs[i]
}

// LoadFirmware installs (or replaces — the paper flashes the prototype
// back and forth) the device firmware.
func (n *NIC) LoadFirmware(fw Firmware) { n.fw = fw }

// Firmware returns the active firmware.
func (n *NIC) Firmware() Firmware { return n.fw }

// AttachWire connects the port to a cable. The NIC transmits with
// wire.Send(n, f) and receives via Receive.
func (n *NIC) AttachWire(w *eth.Wire) { n.wire = w }

// OnLinkChange registers a hook invoked after a PF's link state flips;
// the octo team driver uses it to fail flows over to surviving PFs.
func (n *NIC) OnLinkChange(hook func(pf int, up bool)) {
	n.linkHooks = append(n.linkHooks, hook)
}

// SetPFLink forces a PF's link state (fault injection). While down the
// PF exchanges no frames — arriving frames steered to it are dropped
// and transmissions die silently, exactly as on a dead port — but its
// PCIe side stays alive, so descriptor fetches and completion
// writebacks still drain (the device is up; the port is not). Hooks run
// synchronously so the driver's failover latency is purely its own
// re-steering cost.
func (n *NIC) SetPFLink(pf int, up bool) {
	p := n.PF(pf)
	if p.linkUp == up {
		return
	}
	p.linkUp = up
	for _, h := range n.linkHooks {
		h(pf, up)
	}
}

// OnFirmwareReset registers a hook invoked after a firmware reset wipes
// the steering tables; drivers use it to replay their journaled rules.
func (n *NIC) OnFirmwareReset(hook func()) {
	n.fwResetHooks = append(n.fwResetHooks, hook)
}

// ResetFirmware models a firmware-level fault (fault injection): the
// steering tables are wiped — SteerRx degrades to the firmware's
// fallback until reprogrammed — while link state, queues and in-flight
// DMA survive. Hooks run synchronously, so observed recovery latency is
// purely the drivers' own replay cost.
func (n *NIC) ResetFirmware() {
	if n.fw != nil {
		n.fw.Reset()
	}
	for _, h := range n.fwResetHooks {
		h()
	}
}

// SetQueueStall freezes (or releases) completion delivery on one queue
// pair (fault injection): both directions of PF pf's queue index q hold
// their writebacks while stalled. Out-of-range queue indexes panic via
// PF; callers validate against RxQueues/TxQueues lengths first.
func (n *NIC) SetQueueStall(pf, queue int, on bool) {
	p := n.PF(pf)
	if queue < 0 || queue >= len(p.rxQueues) || queue >= len(p.txQueues) {
		panic(fmt.Sprintf("nic %s: PF %d has no queue pair %d", n.name, pf, queue))
	}
	p.rxQueues[queue].SetStalled(on)
	p.txQueues[queue].SetStalled(on)
}

// Receive implements eth.Port: a frame has fully arrived at the port.
// The MPFS/firmware steers it to a PF and queue, then the Rx datapath
// DMAs it to host memory.
func (n *NIC) Receive(f *eth.Frame) {
	if n.fw == nil {
		panic(fmt.Sprintf("nic %s: no firmware loaded", n.name))
	}
	n.rxFrames++
	n.rxPackets += uint64(max(1, f.Packets))
	pf, queue := n.fw.SteerRx(f)
	if pf < 0 || pf >= len(n.pfs) {
		n.rxDrops++
	} else if !n.pfs[pf].linkUp {
		// Steered to a dead port: the frame has nowhere to land. The
		// MPFS cannot re-steer on its own — recovery is the driver's
		// job (failover re-steers flows; retransmission recovers what
		// was in flight).
		n.pfs[pf].rxLinkDrops++
		n.rxDrops++
	} else {
		n.pfs[pf].receive(queue, f)
	}
	// The Rx datapath copies everything it needs out of the frame
	// before any DMA runs, so the frame dies here (no-op if unpooled).
	f.Release()
}

// PF is one physical function: a PCIe endpoint plus its queues. Under
// the standard firmware each PF is an independent logical NIC with its
// own MAC; under the IOctopus firmware the PFs are limbs of one device.
type PF struct {
	nic   *NIC
	index int
	ep    *pcie.Endpoint
	mac   eth.MAC

	rxQueues []*RxQueue
	txQueues []*TxQueue

	rxBytes float64 // payload delivered to host via this PF
	txBytes float64

	// Link state (fault injection): up by default. Counters track
	// frames lost to a down link in each direction.
	linkUp      bool
	rxLinkDrops uint64
	txLinkDrops uint64
}

// Index returns the PF number.
func (p *PF) Index() int { return p.index }

// Endpoint returns the PF's PCIe endpoint.
func (p *PF) Endpoint() *pcie.Endpoint { return p.ep }

// Node returns the socket this PF is attached to.
func (p *PF) Node() topology.NodeID { return p.ep.Node() }

// MAC returns the PF's own address (meaningful under standard
// firmware).
func (p *PF) MAC() eth.MAC { return p.mac }

// NIC returns the owning device.
func (p *PF) NIC() *NIC { return p.nic }

// RxQueues returns the PF's receive queues.
func (p *PF) RxQueues() []*RxQueue { return p.rxQueues }

// TxQueues returns the PF's transmit queues.
func (p *PF) TxQueues() []*TxQueue { return p.txQueues }

// LinkUp reports whether the PF's link is up.
func (p *PF) LinkUp() bool { return p.linkUp }

// RxBytes returns payload bytes DMA'd to the host through this PF —
// the per-PF throughput series of Figure 14.
func (p *PF) RxBytes() float64 { return p.rxBytes }

// receive runs the Rx datapath for a steered frame.
func (p *PF) receive(queue int, f *eth.Frame) {
	if queue < 0 || queue >= len(p.rxQueues) {
		p.nic.rxDrops++
		return
	}
	p.rxQueues[queue].receive(f)
}
