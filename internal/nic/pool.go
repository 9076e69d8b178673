// Packet pools: generation-counted free lists for the per-packet model
// objects of the datapath, mirroring the engine's event-slot arena
// (sim.Engine). A steady-state packet costs zero heap allocations: the
// RxQueue leases RxPackets at frame arrival and the socket layer
// recycles them after Recv (or on drop); the driver leases TxPackets at
// xmit and recycles them after reaping the Tx completion. Each pooled
// object carries its DMA-stage callbacks as method values cached at
// first construction, so the per-fragment/per-stage closures of the
// pre-pool datapath disappear with the objects.
//
// Ownership contract:
//
//   - An RxPacket handed out by RxQueue.Poll is owned by the driver,
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

import "sync/atomic"

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

// PoolStats counts pool traffic: Hits/Misses split leases between
// recycled and freshly allocated objects; Live is leases not yet
// recycled.
type PoolStats struct {
	Hits, Misses, Recycled uint64
	Live                   int
}

// rxPacketPool recycles RxPackets for one NIC.
type rxPacketPool struct {
	pooled bool
	free   []*RxPacket
	stats  PoolStats
}

// get leases an RxPacket. The caller fills every public field; stale
// values from the previous lease are not cleared on the hot path.
func (p *rxPacketPool) get() *RxPacket {
	if n := len(p.free); n > 0 {
		rxp := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		rxp.leased = true
		p.stats.Hits++
		p.stats.Live++
		return rxp
	}
	rxp := &RxPacket{}
	rxp.payloadDone = rxp.runPayloadDone
	rxp.compDone = rxp.runCompDone
	if p.pooled {
		rxp.pool = p
		rxp.leased = true
		p.stats.Misses++
		p.stats.Live++
	}
	return rxp
}

// Recycle returns the packet to its pool. Safe (a no-op) on unpooled
// packets, so drop paths and tests need not care how a packet was
// built; recycling the same lease twice panics.
func (rxp *RxPacket) Recycle() {
	p := rxp.pool
	if p == nil {
		return
	}
	if !rxp.leased {
		panic("nic: RxPacket recycled twice")
	}
	rxp.leased = false
	rxp.gen++
	rxp.Queue = nil
	rxp.Buf = nil
	rxp.Meta = nil
	p.stats.Live--
	p.stats.Recycled++
	p.free = append(p.free, rxp)
}

// Generation returns the packet's recycle generation; a held pointer
// whose generation has moved on is a stale reference.
func (rxp *RxPacket) Generation() uint32 { return rxp.gen }

// txPacketPool recycles TxPackets for one NIC.
type txPacketPool struct {
	pooled bool
	free   []*TxPacket
	stats  PoolStats
}

// get leases a TxPacket with an empty (capacity-preserving) Frags
// slice.
func (p *txPacketPool) get() *TxPacket {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		pkt.leased = true
		p.stats.Hits++
		p.stats.Live++
		return pkt
	}
	pkt := &TxPacket{}
	pkt.initCallbacks()
	if p.pooled {
		pkt.pool = p
		pkt.leased = true
		p.stats.Misses++
		p.stats.Live++
	}
	return pkt
}

// Recycle returns the packet to its pool, keeping the fragment backing
// array for the next lease. No-op on unpooled packets; a double recycle
// panics.
func (pkt *TxPacket) Recycle() {
	p := pkt.pool
	if p == nil {
		return
	}
	if !pkt.leased {
		panic("nic: TxPacket recycled twice")
	}
	pkt.leased = false
	pkt.gen++
	for i := range pkt.Frags {
		pkt.Frags[i] = TxFrag{}
	}
	pkt.Frags = pkt.Frags[:0]
	pkt.Meta = nil
	pkt.OnSent = nil
	pkt.Dropped = false
	pkt.q = nil
	pkt.postQ = nil
	p.stats.Live--
	p.stats.Recycled++
	p.free = append(p.free, pkt)
}

// Generation returns the packet's recycle generation.
func (pkt *TxPacket) Generation() uint32 { return pkt.gen }

// LeaseTxPacket takes a TxPacket from the NIC's pool (drivers call this
// on the xmit path instead of allocating).
func (n *NIC) LeaseTxPacket() *TxPacket { return n.txPool.get() }

// RxPoolStats returns the receive packet pool counters.
func (n *NIC) RxPoolStats() PoolStats { return n.rxPool.stats }

// TxPoolStats returns the transmit packet pool counters.
func (n *NIC) TxPoolStats() PoolStats { return n.txPool.stats }
