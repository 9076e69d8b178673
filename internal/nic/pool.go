// Packet pools: the per-packet model objects of the datapath come from
// sim.Pool free lists, one per NIC for RxPackets, TxPackets and the
// eth.Frames the NIC transmits, so a steady-state packet costs zero
// heap allocations. Each object embeds its sim.Lease. The RxQueue
// leases RxPackets at frame arrival and the socket layer recycles them
// after Recv (or on drop); the driver leases TxPackets at xmit and
// recycles them after reaping the Tx completion. Each pooled object
// carries its DMA-stage callbacks as method values cached at first
// construction, so the per-fragment/per-stage closures of the pre-pool
// datapath disappear with the objects.
//
// Ownership contract:
//
//   - An RxPacket handed out by RxQueue.Reap is owned by the driver,
//     then by the socket layer once DeliverRx accepts it. Whoever
//     consumes it (Socket.Recv internally, a drop path) must call
//     Recycle exactly once and must not touch the packet afterwards.
//   - A TxPacket leased via NIC.LeaseTxPacket is owned by the device
//     from Post until the driver reaps it; the driver recycles it after
//     the OnSent callback. Nothing may retain a packet across its
//     Recycle.
//
// Recycle bumps the object's generation and a second Recycle panics, so
// lifetime bugs surface immediately instead of as corrupted traffic.
package nic

import (
	"sync/atomic"

	"ioctopus/internal/sim"
)

// poolingOff disables packet/frame pooling globally when set. It is
// read once per NIC at construction, and it is atomic because -parallel
// builds clusters, and so NICs, on concurrent goroutines. It exists for
// the A/B regression test that proves pooled and unpooled runs emit
// byte-identical results.
var poolingOff atomic.Bool

// SetPooling enables or disables packet pooling for NICs constructed
// afterwards. Pooling is on by default; disabling restores the
// allocate-per-packet behaviour (same simulated timing, more GC).
func SetPooling(enabled bool) { poolingOff.Store(!enabled) }

// PoolingEnabled reports whether new NICs will pool packet objects.
func PoolingEnabled() bool { return !poolingOff.Load() }

// newRxPacket builds a packet with its DMA-stage callbacks cached.
func newRxPacket() (*RxPacket, *sim.Lease[RxPacket]) {
	rxp := &RxPacket{}
	rxp.payloadDone = rxp.runPayloadDone
	rxp.compDone = rxp.runCompDone
	return rxp, &rxp.Lease
}

// resetRxPacket drops a recycled packet's references. The caller of
// the next lease fills every public field; the rest keep stale values.
func resetRxPacket(rxp *RxPacket) {
	rxp.Queue = nil
	rxp.Buf = nil
	rxp.Meta = nil
}

// Recycle returns the packet to its pool. Safe (a no-op) on unpooled
// packets, so drop paths and tests need not care how a packet was
// built; recycling the same lease twice panics.
func (rxp *RxPacket) Recycle() { rxp.Release() }

// newTxPacket builds a packet with its DMA-stage callbacks cached.
func newTxPacket() (*TxPacket, *sim.Lease[TxPacket]) {
	pkt := &TxPacket{}
	pkt.initCallbacks()
	return pkt, &pkt.Lease
}

// resetTxPacket clears a recycled packet, keeping the fragment backing
// array for the next lease.
func resetTxPacket(pkt *TxPacket) {
	for i := range pkt.Frags {
		pkt.Frags[i] = TxFrag{}
	}
	pkt.Frags = pkt.Frags[:0]
	pkt.Meta = nil
	pkt.OnSent = nil
	pkt.Dropped = false
	pkt.q = nil
	pkt.postQ = nil
}

// Recycle returns the packet to its pool. No-op on unpooled packets; a
// double recycle panics.
func (pkt *TxPacket) Recycle() { pkt.Release() }

// LeaseTxPacket takes a TxPacket from the NIC's pool (drivers call this
// on the xmit path instead of allocating). Its Frags slice is empty,
// with the capacity of earlier leases.
func (n *NIC) LeaseTxPacket() *TxPacket { return n.txPool.Get() }
