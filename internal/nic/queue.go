package nic

import (
	"fmt"

	"ioctopus/internal/device"
	"ioctopus/internal/eth"
	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// RxPacket is a received segment handed to the driver: payload already
// DMA'd into Buf, completion entries written to the queue's ring.
// Packets are leased from the NIC's pool at frame arrival and must be
// recycled exactly once by their final consumer (see pool.go for the
// ownership contract).
type RxPacket struct {
	Queue   *RxQueue
	Buf     *memsys.Buffer
	Payload int64
	Packets int
	Flow    eth.FiveTuple
	// Seq is the segment's per-flow sequence number, carried from the
	// wire frame so the stack can detect retransmitted duplicates.
	Seq       uint64
	Meta      any
	ArrivedAt sim.Time

	// Pool lease (zero for plain &RxPacket{} packets, whose Recycle is
	// a no-op) and the cached DMA-stage callbacks: one payload-DMA
	// completion and one writeback completion per packet, built once
	// per pooled object instead of two closures per received frame.
	sim.Lease[RxPacket]
	payloadDone func() // cached rxp.runPayloadDone
	compDone    func() // cached rxp.runCompDone
}

// runPayloadDone is stage 2 of the Rx datapath: the payload landed in
// the packet buffer; write the completion entries.
func (rxp *RxPacket) runPayloadDone() {
	q := rxp.Queue
	q.pf.ep.DMAWrite(q.compRing.Buffer(), int64(rxp.Packets)*DescBytes, rxp.compDone)
}

// runCompDone is stage 3: the completion writeback landed; the segment
// becomes visible to the driver, or is held by a stalled queue.
func (rxp *RxPacket) runCompDone() { rxp.Queue.Complete(rxp) }

// rxVisible is the Rx accounting as a segment becomes visible to the
// driver.
func rxVisible(rxp *RxPacket) {
	q := rxp.Queue
	q.pf.rxBytes += float64(rxp.Payload)
	rxp.ArrivedAt = q.pf.nic.eng.Now()
	q.delivered++
}

// RxQueue is one receive queue: a completion ring the device writes and
// the host reads, plus a pool of packet buffers recycled round-robin.
// Its completion side (interrupt moderation, poll mode, stalls) is the
// embedded device.Completions.
type RxQueue struct {
	device.Completions[*RxPacket]

	pf *PF

	compRing *device.Ring
	bufs     []*memsys.Buffer
	bufNext  int

	drops     uint64
	delivered uint64
}

// AddRxQueue attaches a receive queue to the PF. The driver supplies
// the completion ring and packet buffers (allocated NUMA-appropriately)
// and the interrupt target+handler.
func (p *PF) AddRxQueue(compRing *device.Ring, bufs []*memsys.Buffer, irqNode topology.NodeID, onIRQ func()) *RxQueue {
	if len(bufs) == 0 {
		panic("nic: rx queue needs packet buffers")
	}
	q := &RxQueue{
		pf:       p,
		compRing: compRing,
		bufs:     bufs,
	}
	q.Init(p.nic.eng, p.ep, irqNode, onIRQ, p.nic.coalesceDelay, rxVisible)
	p.rxQueues = append(p.rxQueues, q)
	return q
}

// CompletionRing returns the queue's completion ring (for driver-side
// entry reads).
func (q *RxQueue) CompletionRing() *device.Ring { return q.compRing }

// receive runs the hardware Rx datapath for one steered frame. The
// RxPacket is leased and filled here, before the DMA stages run, so
// the frame itself is dead once this returns (the NIC releases it) and
// the DMA completions are the packet's own cached callbacks.
func (q *RxQueue) receive(f *eth.Frame) {
	// Ring occupancy check: completions not yet consumed by the host —
	// including writebacks held by a stalled queue — hold ring entries.
	if q.Pending()+q.HeldCompletions() >= q.compRing.Capacity() {
		q.drops++
		q.pf.nic.rxDrops++
		return
	}
	buf := q.bufs[q.bufNext]
	q.bufNext = (q.bufNext + 1) % len(q.bufs)
	rxp := q.pf.nic.rxPool.Get()
	rxp.Queue = q
	rxp.Buf = buf
	rxp.Payload = f.Payload
	rxp.Packets = max(1, f.Packets)
	rxp.Flow = f.Flow
	rxp.Seq = f.Seq
	rxp.Meta = f.Meta
	// Payload DMA, then completion writeback, then interrupt decision.
	q.pf.ep.DMAWrite(buf, f.Payload, rxp.payloadDone)
}

// Poll removes up to budget received segments (the NAPI poll); the
// batch is valid for the synchronous loop consuming it (see
// device.Completions.Reap).
func (q *RxQueue) Poll(budget int) []*RxPacket { return q.Reap(budget) }

// TxFrag is one fragment of a transmitted packet; fragments may live on
// different NUMA nodes (sendfile from the page cache, §3.3), which is
// what IOctoSG exists for.
type TxFrag struct {
	Buf   *memsys.Buffer
	Bytes int64
}

// TxPacket is a segment handed to the device for transmission.
// Drivers lease them from the NIC's pool (NIC.LeaseTxPacket) and
// recycle them after reaping the completion; plain &TxPacket{} values
// still work (Recycle is then a no-op).
type TxPacket struct {
	Frags   []TxFrag
	Payload int64
	Packets int
	// Descriptors is how many ring descriptors describe the segment
	// (1 for a TSO segment; per-packet generators post one each).
	Descriptors int
	Flow        eth.FiveTuple
	Dst         eth.MAC
	// Seq is the segment's per-flow sequence number, copied onto the
	// wire frame (retransmission dedup at the receiver).
	Seq  uint64
	Meta any
	// OnSent fires after the driver reaps the Tx completion.
	OnSent func()
	// Dropped is set by the device when the segment died on a down
	// link: the completion still writes back (the PCIe side is alive)
	// so the driver reaps the descriptor, sees the flag, and may
	// repost the segment on a surviving PF instead of recycling it.
	Dropped bool

	// Pool lease plus the packet's cached DMA-stage callbacks: the
	// per-fragment payload reads of one packet form a single batch
	// completed by one shared callback and countdown, instead of a
	// fresh closure per fragment.
	sim.Lease[TxPacket]
	q            *TxQueue // posting queue, set by Post
	postQ        *TxQueue // DeferPost target
	dmaRemaining int
	fetchDone    func() // cached pkt.runFetchDone
	fragDone     func() // cached pkt.runFragDone
	compDone     func() // cached pkt.runCompDone
	postFn       func() // cached pkt.runPost
}

// initCallbacks caches the stage callbacks as method values; called
// once when the object is first constructed (newTxPacket or first
// Post).
func (pkt *TxPacket) initCallbacks() {
	pkt.fetchDone = pkt.runFetchDone
	pkt.fragDone = pkt.runFragDone
	pkt.compDone = pkt.runCompDone
	pkt.postFn = pkt.runPost
}

// DeferPost binds the queue the packet will be posted to and returns
// the cached thunk that performs the post — the driver schedules it
// after the doorbell flight time without allocating a closure.
func (pkt *TxPacket) DeferPost(q *TxQueue) func() {
	if pkt.postFn == nil {
		pkt.initCallbacks()
	}
	pkt.postQ = q
	return pkt.postFn
}

// runPost delivers a deferred post.
func (pkt *TxPacket) runPost() {
	q := pkt.postQ
	pkt.postQ = nil
	q.Post(pkt)
}

// runFetchDone is stage 2 of the Tx datapath: descriptors fetched;
// start the payload DMA batch.
func (pkt *TxPacket) runFetchDone() { pkt.q.startPayloadDMA(pkt) }

// runFragDone counts down the packet's fragment batch; the last
// fragment puts the frame on the wire.
func (pkt *TxPacket) runFragDone() {
	pkt.dmaRemaining--
	if pkt.dmaRemaining == 0 {
		pkt.q.transmit(pkt)
	}
}

// runCompDone is the final stage: the completion writeback landed; the
// packet waits for the driver's reap. A stalled queue holds the
// writeback device-side (fault injection) — the descriptor stays in
// flight, which is what a driver watchdog's Tx-progress check keys on.
func (pkt *TxPacket) runCompDone() { pkt.q.Complete(pkt) }

// txVisible is the Tx accounting as a completion becomes visible to
// the driver.
func txVisible(pkt *TxPacket) { pkt.q.sent++ }

// TxQueue is one transmit queue: descriptor ring (host writes, device
// reads) and completion ring (device writes, host reads), with the
// same embedded completion side as RxQueue.
type TxQueue struct {
	device.Completions[*TxPacket]

	pf *PF

	descRing *device.Ring
	compRing *device.Ring

	posted uint64
	sent   uint64
}

// AddTxQueue attaches a transmit queue to the PF.
func (p *PF) AddTxQueue(descRing, compRing *device.Ring, irqNode topology.NodeID, onIRQ func()) *TxQueue {
	q := &TxQueue{
		pf:       p,
		descRing: descRing,
		compRing: compRing,
	}
	q.Init(p.nic.eng, p.ep, irqNode, onIRQ, p.nic.coalesceDelay, txVisible)
	p.txQueues = append(p.txQueues, q)
	return q
}

// PF returns the owning physical function.
func (q *TxQueue) PF() *PF { return q.pf }

// DescRing returns the descriptor ring (driver posts into it).
func (q *TxQueue) DescRing() *device.Ring { return q.descRing }

// CompletionRing returns the completion ring.
func (q *TxQueue) CompletionRing() *device.Ring { return q.compRing }

// InFlight returns descriptors posted but not yet reaped.
func (q *TxQueue) InFlight() int { return int(q.posted - q.sent) }

// Sent returns completions delivered to the host so far — the
// monotonic progress counter a driver watchdog samples to detect a
// stuck queue (posted work whose Sent never advances).
func (q *TxQueue) Sent() uint64 { return q.sent }

// Post hands a packet to the hardware after the driver has written its
// descriptor and rung the doorbell (the driver charges those CPU
// costs). The device fetches the descriptor, DMA-reads the payload
// fragments — through this PF, or fragment-local PFs when the firmware
// has IOctoSG — transmits on the wire, and writes a Tx completion.
func (q *TxQueue) Post(pkt *TxPacket) {
	nic := q.pf.nic
	if nic.wire == nil {
		panic(fmt.Sprintf("nic %s: no wire attached", nic.name))
	}
	q.posted++
	if pkt.Descriptors <= 0 {
		pkt.Descriptors = 1
	}
	if per := pkt.Payload / int64(pkt.Descriptors); per > MaxSegment {
		panic(fmt.Sprintf("nic %s: %d bytes per descriptor exceeds TSO max %d", nic.name, per, MaxSegment))
	}
	if len(pkt.Frags) == 0 {
		panic("nic: TxPacket needs at least one fragment")
	}
	pkt.q = q
	if pkt.fetchDone == nil {
		pkt.initCallbacks()
	}
	// Descriptor fetch, then the payload batch, then wire + completion.
	q.descRing.DeviceRead(q.pf.ep, pkt.Descriptors, pkt.fetchDone)
}

// startPayloadDMA issues the packet's payload reads as one batch: the
// fragments are fetched in descriptor order — through this PF, or
// fragment-local PFs when the firmware has IOctoSG — and all share the
// packet's cached countdown callback, so fragment count never changes
// the number of closures (zero) or the event sequence.
func (q *TxQueue) startPayloadDMA(pkt *TxPacket) {
	nic := q.pf.nic
	frags := pkt.Frags
	pkt.dmaRemaining = len(frags)
	sg := nic.fw != nil && nic.fw.SGEnabled()
	for i := range frags {
		fr := &frags[i]
		ep := q.pf.ep
		if sg {
			// IOctoSG: read each fragment through the PF local to
			// its memory so no fragment crosses the interconnect.
			if local := nic.pfOn(fr.Buf.Home()); local != nil {
				ep = local.ep
			}
		}
		ep.DMARead(fr.Buf, fr.Bytes, pkt.fragDone)
	}
}

// transmit puts the assembled frame on the wire and completes. On a
// down link the frame is never built: the segment dies at the port, but
// the completion writeback still happens (flagged Dropped) so the
// descriptor ring drains and the driver can recover the segment.
func (q *TxQueue) transmit(pkt *TxPacket) {
	nic := q.pf.nic
	if !q.pf.linkUp {
		pkt.Dropped = true
		q.pf.txLinkDrops++
		q.pf.ep.DMAWrite(q.compRing.Buffer(), int64(max(1, pkt.Packets))*DescBytes, pkt.compDone)
		return
	}
	src := q.pf.mac
	if nic.fw != nil && nic.fw.SingleMAC() {
		src = nic.mac
	}
	frame := nic.frames.Get()
	frame.Src = src
	frame.Dst = pkt.Dst
	frame.Flow = pkt.Flow
	frame.Payload = pkt.Payload
	frame.Packets = max(1, pkt.Packets)
	frame.Seq = pkt.Seq
	frame.Meta = pkt.Meta
	nic.wire.Send(nic, frame)
	q.pf.txBytes += float64(pkt.Payload)
	// Completion writeback for the segment's packets.
	q.pf.ep.DMAWrite(q.compRing.Buffer(), int64(frame.Packets)*DescBytes, pkt.compDone)
}

// pfOn returns the PF attached to the given node, or nil.
func (n *NIC) pfOn(node topology.NodeID) *PF {
	for _, p := range n.pfs {
		if p.ep.Node() == node {
			return p
		}
	}
	return nil
}
