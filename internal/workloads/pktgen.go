package workloads

import (
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// RawTxDevice is the driver surface pktgen needs: the socket-bypassing
// transmit path plus the XPS queue map. Both drivers provide it.
type RawTxDevice interface {
	netstack.NetDevice
	RawTx(t *kernel.Thread, pkt *netstack.Packet, txq int)
}

// Pktgen's fixed shape (§5.1.1, Figure 8).
const (
	// pktgenBatch is packets per burst (pktgen's burst/clone_skb
	// behaviour).
	pktgenBatch = 64
	// pktgenPerPacketCost is pktgen's own per-packet CPU work (skb
	// setup, counters) — excludes descriptor/doorbell/completion costs,
	// which the driver and memory system charge.
	pktgenPerPacketCost time.Duration = 150 * time.Nanosecond
	// pktgenMaxOutstanding bounds unreaped bursts (ring occupancy
	// control).
	pktgenMaxOutstanding = 8
)

// Pktgen is a running packet generator.
type Pktgen struct {
	pktSize  int64
	sent     uint64 // packets fully transmitted (completion reaped)
	baseline uint64
}

// StartPktgen launches the in-kernel packet generator (§5.1.1, Figure
// 8) on server core coreID: one kernel thread blasting identical
// pktSize-byte packets through dev toward the client NIC, in batches,
// reusing the same payload buffer.
func StartPktgen(cl *core.Cluster, dev RawTxDevice, coreID topology.CoreID, pktSize int64) *Pktgen {
	w := &Pktgen{pktSize: pktSize}
	node := cl.Server.Topo.NodeOf(coreID)
	// The payload region pktgen clones from: written once, then reused
	// (hot in the sender's LLC — the Figure 8 setup).
	payload := cl.Server.Mem.NewBuffer(node, pktSize*pktgenBatch)

	cl.Server.Kernel.Spawn("pktgen", coreID, func(th *kernel.Thread) {
		// Initialize the payload (allocates it into the LLC).
		th.ExecFn(func() time.Duration {
			return cl.Server.Mem.CPUWrite(th.Node(), payload, payload.Size())
		})
		outstanding := 0
		sig := sim.NewSignal(cl.Eng)
		flow := eth.FiveTuple{SrcIP: core.IPServerPF0, DstIP: core.IPClient, SrcPort: 9, DstPort: 9, Proto: eth.ProtoUDP}
		txq := dev.TxQueueForCore(coreID)
		// pktgen clones the same skb every burst: build the packet and
		// its completion callback once and hand the driver the same
		// scratch object (RawTx copies before returning).
		pkt := &netstack.Packet{
			Flow:        flow,
			DstMAC:      cl.ClientDev.HWAddr(),
			Payload:     pktSize * pktgenBatch,
			Packets:     pktgenBatch,
			Descriptors: pktgenBatch,
			Frags:       []netstack.Frag{{Buf: payload, Bytes: pktSize * pktgenBatch}},
		}
		pkt.OnSent = func() {
			outstanding--
			w.sent += pktgenBatch
			sig.Broadcast()
		}
		for {
			for outstanding >= pktgenMaxOutstanding {
				th.Wait(sig)
			}
			outstanding++
			th.Exec(pktgenBatch * pktgenPerPacketCost)
			dev.RawTx(th, pkt, txq)
		}
	})
	return w
}

// MeasureStart marks the measurement window start.
func (w *Pktgen) MeasureStart() { w.baseline = w.sent }

// Packets returns packets transmitted since MeasureStart.
func (w *Pktgen) Packets() uint64 { return w.sent - w.baseline }

// PayloadBytes returns payload bytes transmitted since MeasureStart.
func (w *Pktgen) PayloadBytes() int64 { return int64(w.Packets()) * w.pktSize }
