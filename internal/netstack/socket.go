package netstack

import (
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/nic"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Socket is a connected endpoint. Send and Recv charge the full
// stack+copy CPU costs on the calling thread's core and move data
// through the device underneath; windowing throttles senders to the
// receiver's pace as TCP does.
type Socket struct {
	stack *Stack
	ft    eth.FiveTuple
	dev   NetDevice
	owner *kernel.Thread
	// peer is the connection's other end: nil on the dialer until the
	// SYN-ACK lands, and again once either side closes.
	peer    *Socket
	peerMAC eth.MAC

	txq        int
	seq        uint64
	closed     bool
	window     int64
	inFlight   int64
	advertised int64 // peer's last advertised receive-buffer space
	winSig     *sim.Signal

	rxq *segQueue

	// Per-node lazily allocated buffers: the user-space buffer the app
	// reads/writes and the kernel-side tx staging buffer (skb data).
	userBufs map[topology.NodeID]*memsys.Buffer
	txBufs   map[topology.NodeID]*memsys.Buffer

	// Zero-alloc scratch state. A socket has at most one sending and
	// one receiving thread at a time (every workload in the suite obeys
	// this; it mirrors the lock a real socket would take), and a call
	// parks its thread from entry to return, so one scratch record per
	// direction holds the call's state while its kernel-side steps run
	// as event callbacks (see Send and Recv).
	sendT        *kernel.Thread
	sendSrc      *memsys.Buffer // SendMsgFrom's source; nil: the user buffer
	sendFrags    []Frag         // SendFrags' fragments; nil on the copying path
	sendMeta     any
	sendLeft     int64                // bytes not yet cut into segments
	sendSeg      int64                // the segment in progress
	sendPkts     int                  // its wire packets
	sendFirst    bool                 // it carries the syscall entry
	sendNode     topology.NodeID      // the sender's node when it started
	sendCostFn   func() time.Duration // cached s.sendCost
	sendWindowFn func()               // cached s.txWindow
	sendXmitFn   func()               // cached s.txXmit
	sendDoneFn   func()               // cached s.txDone
	sendPkt      Packet               // reused skb handed to Xmit
	sendFrag     [1]Frag              // backing array for sendPkt.Frags

	recvT       *kernel.Thread
	recvRxp     *nic.RxPacket
	recvBlocked bool
	// The call's result, read by Recv when the last step wakes it.
	recvPayload int64
	recvMeta    any
	recvOK      bool
	recvCostFn  func() time.Duration // cached s.recvCost
	syscallFn   func() time.Duration // cached syscall-entry cost
	recvStepFn  func()               // cached s.recvStep
	recvDoneFn  func()               // cached s.recvDone

	// ackFree recycles window-update events (one ACK flight per
	// received segment would otherwise allocate a closure each).
	ackFree *ackEvent

	// Retransmission state, all dormant unless Params.RetxTimeout > 0.
	// Sender side: unacked tracks in-flight segments for the lazily
	// spawned timer thread; retxPkt/retxFrag are the timer thread's own
	// scratch (it runs concurrently with the sending thread, which owns
	// sendPkt). Receiver side: rxCum/rxOut dedup retransmitted copies —
	// every seq ≤ rxCum was received, rxOut holds the out-of-order tail.
	unacked    []retxSeg
	retxT      *kernel.Thread
	retxSig    *sim.Signal
	retxDown   bool
	retxCostFn func() time.Duration // cached s.retxCost
	retxXmitFn func()               // cached s.retxXmit
	retxPkt    Packet
	retxFrag   [1]Frag
	rxCum      uint64
	rxOut      map[uint64]struct{}
}

// retxSeg is one unacknowledged segment held for possible
// retransmission: enough to rebuild the wire packet, plus the timer
// state. Its fragments alias kernel-side buffers (the socket tx staging
// buffer, or page-cache pages for SendFrags), never user scratch. A
// one-fragment segment, every stream segment among them, keeps its
// fragment inline; only a multi-fragment SendFrags segment holds a
// copied list.
type retxSeg struct {
	seq      uint64
	bytes    int64
	pkts     int
	meta     any
	frag     Frag
	frags    []Frag // nil unless the segment has several fragments
	deadline sim.Time
	tries    int
}

// sendCost prices one transmit segment: protocol work, syscall entry
// on the first segment, and the user->kernel copy — all evaluated at
// execution time on the submitting thread's then-current node. A
// SendFrags segment pays the syscall and protocol work only.
func (s *Socket) sendCost() time.Duration {
	cost := tcpTxSegment + time.Duration(s.sendPkts)*tcpTxPerPacket
	if s.sendFrags != nil {
		// sendfile: the page-cache pages go to the device as they are.
		return syscallCost + cost
	}
	if s.ft.Proto == eth.ProtoUDP {
		cost = time.Duration(s.sendPkts) * udpPerPacket
	}
	if s.sendFirst {
		cost += syscallCost
	}
	nd := s.sendT.Node()
	src := s.sendSrc
	if src == nil {
		src = s.userBuf(nd)
	}
	dst := s.txBuf(nd)
	cost += s.stack.k.Memory().CPURead(nd, src, s.sendSeg)
	cost += s.stack.k.Memory().CPUWrite(nd, dst, s.sendSeg)
	return cost
}

// recvCost prices delivering one segment to the application: the copy
// out of the DMA'd packet buffer plus a context switch if the reader
// had blocked.
func (s *Socket) recvCost() time.Duration {
	nd := s.recvT.Node()
	rxp := s.recvRxp
	cost := s.stack.k.Memory().CPURead(nd, rxp.Buf, rxp.Payload)
	cost += s.stack.k.Memory().CPUWrite(nd, s.userBuf(nd), rxp.Payload)
	if s.recvBlocked {
		// The thread slept and was woken by the softirq: context
		// switch back in.
		cost += kernel.ContextSwitch
	}
	return cost
}

// ackEvent is a pooled window-update flight: peer/acked/free are
// captured at schedule time (the peer pointer may be cleared by Close
// before the ACK lands) and the record returns to its socket's free
// list as it fires.
type ackEvent struct {
	owner *Socket
	peer  *Socket
	acked int64
	free  int64
	// seq names the acknowledged segment when retransmission is armed;
	// zero selects the legacy byte-count ack path.
	seq  uint64
	fn   func() // cached ev.run
	next *ackEvent
}

func (ev *ackEvent) run() {
	peer, acked, free, seq := ev.peer, ev.acked, ev.free, ev.seq
	ev.peer = nil
	ev.seq = 0
	s := ev.owner
	ev.next = s.ackFree
	s.ackFree = ev
	if seq != 0 {
		peer.ackSeq(seq)
	} else {
		peer.ack(acked)
	}
	peer.advertise(free)
}

// Flow returns the socket's 5-tuple (local perspective).
func (s *Socket) Flow() eth.FiveTuple { return s.ft }

// SetOwner assigns the socket to a thread (accept path) and programs
// initial flow steering toward its core.
func (s *Socket) SetOwner(t *kernel.Thread) {
	s.owner = t
	if t != nil {
		s.dev.SteerFlow(s.ft.Reverse(), t.Core())
	}
}

// SteerTo explicitly steers the socket's arriving flow toward a core
// (manual IRQ/flow placement, as benchmark harnesses do with ethtool).
func (s *Socket) SteerTo(core topology.CoreID) {
	s.dev.SteerFlow(s.ft.Reverse(), core)
}

// bufOn returns the per-node buffer, allocating it on first use.
func (s *Socket) bufOn(m map[topology.NodeID]*memsys.Buffer, node topology.NodeID) *memsys.Buffer {
	if b, ok := m[node]; ok {
		return b
	}
	b := s.stack.k.Alloc(node, userBufBytes)
	m[node] = b
	return b
}

func (s *Socket) userBuf(node topology.NodeID) *memsys.Buffer {
	if s.userBufs == nil {
		s.userBufs = make(map[topology.NodeID]*memsys.Buffer)
	}
	return s.bufOn(s.userBufs, node)
}

func (s *Socket) txBuf(node topology.NodeID) *memsys.Buffer {
	if s.txBufs == nil {
		s.txBufs = make(map[topology.NodeID]*memsys.Buffer)
	}
	return s.bufOn(s.txBufs, node)
}

// Send transmits n payload bytes, blocking on the send window. It
// charges syscall, copy, protocol and driver costs on t's core.
//
// The thread parks once for the whole call. Its kernel-side steps run
// as event callbacks, each at the event where a blocking loop would
// have resumed the thread (a core's done event, or the window signal's
// broadcast), and the last one wakes it: per segment, txWindow waits
// for the window and queues the stack cost, txXmit picks the queue and
// hands the segment to the driver, and txDone starts the next segment
// or returns.
func (s *Socket) Send(t *kernel.Thread, n int64) {
	s.SendMsg(t, n, nil)
}

// SendMsg is Send with metadata carried to the receiver (timestamps for
// latency benchmarks).
func (s *Socket) SendMsg(t *kernel.Thread, n int64, meta any) {
	s.send(t, nil, nil, n, meta)
}

// SendMsgFrom transmits n bytes whose application-side source is the
// given buffer (a memcached slab, a file cache page run) instead of the
// socket's default user buffer, so residency and locality of the real
// data source drive the copy costs.
func (s *Socket) SendMsgFrom(t *kernel.Thread, src *memsys.Buffer, n int64, meta any) {
	s.send(t, src, nil, n, meta)
}

// SendFrags transmits one segment built from caller-provided, non-empty
// fragments (the sendfile/IOctoSG path: fragments may be homed on
// different nodes). No user->kernel copy is charged — the page-cache
// pages are handed to the device directly. It shares Send's steps.
func (s *Socket) SendFrags(t *kernel.Thread, frags []Frag, meta any) {
	var total int64
	for _, f := range frags {
		total += f.Bytes
	}
	s.send(t, nil, frags, total, meta)
}

// send is every send call's entry: it sets the call's scratch, starts
// the first segment and parks the thread until txDone wakes it.
func (s *Socket) send(t *kernel.Thread, src *memsys.Buffer, frags []Frag, n int64, meta any) {
	if s.owner == nil {
		s.owner = t
	}
	if n <= 0 {
		return
	}
	s.sendT, s.sendSrc, s.sendFrags, s.sendMeta = t, src, frags, meta
	s.sendLeft, s.sendFirst = n, true
	s.txNext()
	t.Park()
}

// txNext cuts the next segment off the call's bytes: at most a TSO
// segment, or all of them for SendFrags.
func (s *Socket) txNext() {
	seg := s.sendLeft
	if s.sendFrags == nil {
		seg = min(seg, nic.MaxSegment)
	}
	s.sendLeft -= seg
	s.sendSeg = seg
	s.txWindow()
}

// txWindow waits, re-registering on every window broadcast, until the
// segment fits the send window, then queues its stack-side CPU (priced
// by sendCost) on the sender's core.
func (s *Socket) txWindow() {
	if s.ft.Proto == eth.ProtoTCP {
		if !s.windowOpen(s.sendSeg) {
			if s.winSig == nil {
				s.winSig = sim.NewSignal(s.stack.k.Engine())
			}
			s.winSig.Notify(s.sendWindowFn)
			return
		}
		s.inFlight += s.sendSeg
	}
	s.sendPkts = eth.SegmentPackets(s.sendSeg)
	s.sendNode = s.sendT.Node()
	s.sendT.Submit(s.sendCostFn, s.sendXmitFn)
}

// txXmit runs when the stack cost is done: it picks the Tx queue and
// hands the segment to the driver.
func (s *Socket) txXmit() {
	s.sendFirst = false
	// XPS: pick the queue for the current core; switch away from a
	// previous queue only once it has drained (ooo_okay, §2.3 and
	// §4.2), so the switch cannot reorder the flow.
	desired := s.dev.TxQueueForCore(s.sendT.Core())
	if s.txq >= 0 && desired != s.txq && s.dev.TxInFlight(s.txq) > 0 {
		desired = s.txq
	}
	s.txq = desired

	s.seq++
	frags := s.sendFrags
	if frags == nil {
		s.sendFrag[0] = Frag{Buf: s.txBuf(s.sendNode), Bytes: s.sendSeg}
		frags = s.sendFrag[:1]
	}
	if s.ft.Proto == eth.ProtoTCP && s.stack.params.RetxTimeout > 0 {
		s.trackUnacked(s.seq, s.sendSeg, s.sendPkts, s.sendMeta, frags)
	}
	// The skb is the socket's scratch Packet: it stays valid until
	// txDone runs (see NetDevice), and is reused for the next segment.
	s.sendPkt = Packet{
		Flow:    s.ft,
		DstMAC:  s.peerMAC,
		Payload: s.sendSeg,
		Packets: s.sendPkts,
		Frags:   frags,
		Seq:     s.seq,
		Meta:    s.sendMeta,
	}
	s.dev.Xmit(s.sendT, &s.sendPkt, desired, s.sendDoneFn)
}

// txDone runs once the driver has posted the segment: the next segment
// starts at the same event, or the call returns.
func (s *Socket) txDone() {
	if s.sendLeft > 0 {
		s.txNext()
		return
	}
	s.sendT.Wake()
}

// Recv delivers the next received segment to the application: syscall +
// copy out of the DMA'd packet buffer into the user buffer, on t's
// core. ok is false only if the socket is shut down. As with Send, the
// thread parks once: recvStep runs when the syscall entry is done and
// again at each broadcast of the receive queue until a segment is
// there, and recvDone wakes the thread when its copy-out is done.
func (s *Socket) Recv(t *kernel.Thread) (payload int64, meta any, ok bool) {
	s.owner = t
	s.recvT, s.recvBlocked = t, false
	t.Submit(s.syscallFn, s.recvStepFn)
	t.Park()
	payload, meta, ok = s.recvPayload, s.recvMeta, s.recvOK
	s.recvMeta = nil
	return payload, meta, ok
}

// recvStep takes the head segment and queues its copy-out, or waits for
// one; on a shut-down queue it ends the call.
func (s *Socket) recvStep() {
	q := s.rxq
	if q.items.Len() == 0 {
		if q.closed {
			s.recvPayload, s.recvMeta, s.recvOK = 0, nil, false
			s.recvT.Wake()
			return
		}
		s.recvBlocked = true
		q.sig.Notify(s.recvStepFn)
		return
	}
	s.recvRxp = q.dequeue()
	s.recvT.Submit(s.recvCostFn, s.recvDoneFn)
}

// recvDone runs when the copy-out has been charged: the packet is
// consumed, so this is the Rx recycle point for the copying path.
func (s *Socket) recvDone() {
	rxp := s.recvRxp
	s.recvRxp = nil
	s.recvPayload, s.recvMeta, s.recvOK = rxp.Payload, rxp.Meta, true
	rxp.Recycle()
	s.sendAck(0, 0)
	s.recvT.Wake()
}

// sendAck acknowledges acked bytes and advertises the current
// receive-buffer space to a TCP peer, after the ACK flight time. A
// nonzero seq names the received segment (retransmission armed), so
// the sender can clear its retransmit entry and ignore the duplicate
// ACKs a raced timeout produces.
func (s *Socket) sendAck(acked int64, seq uint64) {
	if s.ft.Proto != eth.ProtoTCP || s.peer == nil {
		return
	}
	ev := s.ackFree
	if ev == nil {
		ev = &ackEvent{owner: s}
		ev.fn = ev.run
	} else {
		s.ackFree = ev.next
	}
	ev.peer = s.peer
	ev.acked = acked
	ev.free = s.rxq.free()
	ev.seq = seq
	s.stack.k.Engine().After(ackLatency, ev.fn)
}

// Close tears the local socket down immediately — releasing blocked
// receivers and retiring the retransmission timer — and sends the peer
// a FIN that closes its side after ConnectLatency. Closing twice (or
// crossing FINs) is a no-op.
func (s *Socket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.stack.sockets, s.ft)
	s.rxq.close()
	s.retxDown = true
	s.unacked = nil
	if s.retxSig != nil {
		s.retxSig.Broadcast()
	}
	if p := s.peer; p != nil {
		s.peer = nil
		s.stack.k.Engine().After(connectLatency, func() {
			if p.peer == s {
				p.peer = nil
			}
			p.Close()
		})
	}
}

// ack opens the send window after the receiver's kernel acknowledged n
// bytes.
func (s *Socket) ack(n int64) {
	if n <= 0 {
		return
	}
	s.inFlight -= n
	if s.inFlight < 0 {
		s.inFlight = 0
	}
	if s.winSig != nil {
		s.winSig.Broadcast()
	}
}

// ackSeq clears the retransmit entry for one segment and opens the
// window by its bytes. A duplicate ACK — the entry is already gone —
// is ignored, so the window is never double-opened when both the
// original and a retransmitted copy are acknowledged.
func (s *Socket) ackSeq(seq uint64) {
	for i := range s.unacked {
		if s.unacked[i].seq == seq {
			n := s.unacked[i].bytes
			s.unacked = append(s.unacked[:i], s.unacked[i+1:]...)
			s.ack(n)
			return
		}
	}
}

// seenSeq reports whether the receiver already accepted this segment.
func (s *Socket) seenSeq(seq uint64) bool {
	if seq <= s.rxCum {
		return true
	}
	_, ok := s.rxOut[seq]
	return ok
}

// markSeq records a segment as received, compacting the out-of-order
// tail into the cumulative watermark. In-order delivery (the fault-free
// case) never touches the map.
func (s *Socket) markSeq(seq uint64) {
	if seq == s.rxCum+1 {
		s.rxCum++
		for len(s.rxOut) > 0 {
			if _, ok := s.rxOut[s.rxCum+1]; !ok {
				break
			}
			delete(s.rxOut, s.rxCum+1)
			s.rxCum++
		}
		return
	}
	if s.rxOut == nil {
		s.rxOut = make(map[uint64]struct{})
	}
	s.rxOut[seq] = struct{}{}
}

// trackUnacked records an in-flight segment for the retransmission
// timer (copying the fragments: the caller's slice is per-send
// scratch) and makes sure the timer thread is running.
func (s *Socket) trackUnacked(seq uint64, bytes int64, pkts int, meta any, frags []Frag) {
	e := retxSeg{
		seq: seq, bytes: bytes, pkts: pkts, meta: meta,
		deadline: s.stack.k.Engine().Now().Add(s.stack.params.RetxTimeout),
	}
	if len(frags) == 1 {
		e.frag = frags[0]
	} else {
		e.frags = append([]Frag(nil), frags...)
	}
	s.unacked = append(s.unacked, e)
	s.ensureRetxThread()
	s.retxSig.Broadcast()
}

// ensureRetxThread lazily spawns the socket's retransmission timer on
// the owner's core (sockets that never send TCP data never pay for
// one).
func (s *Socket) ensureRetxThread() {
	if s.retxT != nil {
		return
	}
	if s.retxSig == nil {
		s.retxSig = sim.NewSignal(s.stack.k.Engine())
	}
	s.retxCostFn = s.retxCost
	s.retxXmitFn = s.retxXmit
	core := topology.CoreID(0)
	if s.owner != nil {
		core = s.owner.Core()
	}
	s.retxT = s.stack.k.Spawn("retx:"+s.ft.String(), core, s.retxLoop)
}

// retxCost prices re-sending one segment: protocol work only — the
// data already sits in kernel buffers, so there is no syscall and no
// user copy.
func (s *Socket) retxCost() time.Duration {
	return tcpTxSegment + time.Duration(s.retxPkt.Packets)*tcpTxPerPacket
}

// retxLoop is the retransmission timer thread. It sleeps until the
// earliest deadline could fire — capped at one RetxTimeout, so a
// segment queued while it slept (whose deadline is necessarily at
// least now+RTO) is still examined on time — then re-sends everything
// overdue with per-segment exponential backoff.
func (s *Socket) retxLoop(t *kernel.Thread) {
	rto := s.stack.params.RetxTimeout
	for {
		if s.retxDown {
			return
		}
		if len(s.unacked) == 0 {
			t.Wait(s.retxSig)
			continue
		}
		now := t.Now()
		wake := s.unacked[0].deadline
		for i := range s.unacked {
			if s.unacked[i].deadline < wake {
				wake = s.unacked[i].deadline
			}
		}
		if limit := now.Add(rto); wake > limit {
			wake = limit
		}
		if wake > now {
			t.Sleep(wake.Sub(now))
			continue
		}
		s.retxScan(t)
	}
}

// retxScan handles every segment whose deadline has passed. Overdue
// seqs are snapshotted first: retransmission blocks on core time, and
// ACKs landing meanwhile mutate the unacked list under us.
func (s *Socket) retxScan(t *kernel.Thread) {
	now := t.Now()
	rto := s.stack.params.RetxTimeout
	maxTries := s.stack.params.RetxMaxTries
	var due []uint64
	for i := range s.unacked {
		if s.unacked[i].deadline <= now {
			due = append(due, s.unacked[i].seq)
		}
	}
	for _, seq := range due {
		if s.retxDown {
			return
		}
		idx := -1
		for i := range s.unacked {
			if s.unacked[i].seq == seq {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue // acknowledged while this pass was working
		}
		e := &s.unacked[idx]
		s.stack.retxTimeouts++
		if maxTries > 0 && e.tries >= maxTries {
			// Retry budget exhausted: abandon the segment, releasing
			// its window bytes so the sender is not wedged forever on
			// data that will never be acknowledged.
			s.stack.retxAbandoned++
			n := e.bytes
			s.unacked = append(s.unacked[:idx], s.unacked[idx+1:]...)
			s.ack(n)
			continue
		}
		e.tries++
		shift := uint(e.tries)
		if shift > 6 {
			shift = 6 // cap the backoff at 64x RTO
		}
		e.deadline = t.Now().Add(rto << shift)
		s.retransmit(t, e)
	}
}

// retransmit re-sends one tracked segment from the timer thread. The
// re-send is built in the thread's own scratch packet (the sending
// thread owns sendPkt) before the thread parks: the entry may move or
// vanish while the transmit is in flight.
func (s *Socket) retransmit(t *kernel.Thread, e *retxSeg) {
	s.stack.retxRetransmits++
	frags := e.frags
	if frags == nil {
		s.retxFrag[0] = e.frag
		frags = s.retxFrag[:1]
	}
	s.retxPkt = Packet{
		Flow:    s.ft,
		DstMAC:  s.peerMAC,
		Payload: e.bytes,
		Packets: e.pkts,
		Frags:   frags,
		Seq:     e.seq,
		Meta:    e.meta,
	}
	t.Submit(s.retxCostFn, s.retxXmitFn)
	t.Park()
}

// retxXmit runs when the protocol work is done: the re-send goes out on
// the timer thread's current core's queue, and the driver's post wakes
// the thread.
func (s *Socket) retxXmit() {
	t := s.retxT
	s.dev.Xmit(t, &s.retxPkt, s.dev.TxQueueForCore(t.Core()), t.WakeFunc())
}

// advertise records the peer's receive-buffer space.
func (s *Socket) advertise(free int64) {
	s.advertised = free
	if s.winSig != nil {
		s.winSig.Broadcast()
	}
}

// windowOpen reports whether seg more bytes fit in both the congestion
// window and the peer's advertised buffer.
func (s *Socket) windowOpen(seg int64) bool {
	if s.inFlight+seg > s.window {
		return false
	}
	return s.inFlight+seg <= s.advertised
}

// segQueue is the socket receive queue: a byte-bounded FIFO whose
// signal is broadcast on every put and on close.
type segQueue struct {
	items    sim.Queue[*nic.RxPacket]
	capBytes int64
	bytes    int64
	sig      *sim.Signal
	closed   bool
}

func newSegQueue(e *sim.Engine, capBytes int64) *segQueue {
	return &segQueue{capBytes: capBytes, sig: sim.NewSignal(e)}
}

// free returns remaining receive-buffer space.
func (q *segQueue) free() int64 {
	f := q.capBytes - q.bytes
	if f < 0 {
		return 0
	}
	return f
}

func (q *segQueue) tryPut(rxp *nic.RxPacket) bool {
	if q.closed || q.bytes+rxp.Payload > q.capBytes {
		return false
	}
	q.items.Put(rxp)
	q.bytes += rxp.Payload
	q.sig.Broadcast()
	return true
}

// dequeue removes the head segment; ownership passes to the caller,
// who must Recycle the packet exactly once (the slot is cleared here so
// the queue never aliases a recycled packet).
func (q *segQueue) dequeue() *nic.RxPacket {
	rxp := q.items.Pop()
	q.bytes -= rxp.Payload
	return rxp
}

// close shuts the queue; undelivered segments will never reach an
// application and return to their pool here.
func (q *segQueue) close() {
	q.closed = true
	for q.items.Len() > 0 {
		q.dequeue().Recycle()
	}
	q.sig.Broadcast()
}
