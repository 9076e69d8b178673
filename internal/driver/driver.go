// Package driver implements the NIC drivers of §4.2: a standard per-PF
// driver (one netdevice per PCIe function, mlx5-style) and the octoNIC
// driver — the IOctopus mode of the team driver — which presents all
// PFs as a single netdevice, transmits through the PF local to the
// sending CPU, and keeps the device's IOctoRFS/MPFS tables in sync with
// thread placement via an asynchronous kernel worker, with periodic
// rule expiry.
package driver

import (
	"fmt"
	"time"

	"ioctopus/internal/device"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/topology"
)

// Driver costs, calibrated to the testbed's mlx5 driver.
const (
	// napiBudget bounds segments per poll.
	napiBudget int = 64
	// doorbellCPU is the core-side cost of ringing a doorbell (the
	// posted write itself; flight time is the device's problem).
	doorbellCPU time.Duration = 60 * time.Nanosecond
	// txFreePerPacket is skb-free cost per packet at Tx completion.
	txFreePerPacket time.Duration = 40 * time.Nanosecond
	// mpfsUpdateDelay is the latency of the asynchronous kernel worker
	// that pushes IOctoRFS/MPFS rule updates to the device (§4.2).
	mpfsUpdateDelay time.Duration = 2 * time.Microsecond
	// mpfsUpdateCPU is the worker's per-update CPU cost.
	mpfsUpdateCPU time.Duration = 500 * time.Nanosecond
	// linkEventDelay is how long after a PHY carrier change (or a
	// firmware reset) the driver's handler runs: interrupt + workqueue
	// latency.
	linkEventDelay time.Duration = time.Millisecond
	// ruleExpiry ages out octo steering rules not refreshed for this
	// long; expiryScanPeriod is how often the scanner thread looks.
	ruleExpiry       time.Duration = 30 * time.Second
	expiryScanPeriod time.Duration = time.Second
)

// MaxParked caps the octo driver's parked-descriptor list (segments
// stranded by a total outage, awaiting any live queue): roughly one Tx
// ring's worth. Overflow segments are released back to the pool — data
// loss recovered by retransmission — and counted.
const MaxParked = 1024

// Params are the driver's per-cluster settings. The zero value is the
// default: completion rings on each queue's node, the watchdog off.
type Params struct {
	// RemoteDDIO homes every completion ring on node 0 instead of on
	// its queue's node: §2.4's remote-DDIO measurement, which puts the
	// response rings local to PF0 and remote to node 1's cores.
	RemoteDDIO bool
	// WatchdogInterval enables the driver self-healing watchdog (see
	// watchdog.go): every interval it samples per-queue Tx progress and
	// the PMD pollers, escalating stuck queues through the recovery
	// ladder. Zero — the default — disables the watchdog entirely: no
	// timer, no per-tick work, no metrics scopes.
	WatchdogInterval time.Duration
}

// queuePair is the per-core queue set a driver owns on some PF.
type queuePair struct {
	core   topology.CoreID
	node   topology.NodeID
	rx     *nic.RxQueue
	rxDesc *device.Ring
	tx     *nic.TxQueue

	// Prepared interrupt vectors and their NAPI handlers, built once at
	// queue setup so interrupt delivery allocates nothing.
	rxLine *kernel.IRQLine
	txLine *kernel.IRQLine

	// hybrid is the pair's adaptive-polling loop (DatapathHybrid only).
	hybrid *hybridState
}

// base carries the machinery shared by both drivers.
type base struct {
	k        *kernel.Kernel
	name     string
	params   Params
	datapath Datapath
	stack    *netstack.Stack
	pairs    []*queuePair // indexed by core id

	// scratch holds each thread's reusable xmit state. A thread has at
	// most one Xmit in flight (its caller's chain continues only from
	// then), so its scratch record is stable from submission until the
	// post step runs.
	scratch map[*kernel.Thread]*xmitScratch

	// repost, when set (octo failover), is offered Tx completions that
	// came back flagged Dropped (transmitted into a dead link) before
	// they are recycled; returning true means the driver took ownership
	// (re-posted on a surviving queue, or parked awaiting one) and the
	// packet must not be recycled or reported sent.
	repost func(qp *queuePair, pkt *nic.TxPacket) bool

	// pmd carries the poll-mode counters and pollers; nil on the
	// interrupt datapath (see pmd.go).
	pmd *pmdStats

	// wd is the self-healing watchdog; nil unless Params.WatchdogInterval
	// is set (see watchdog.go).
	wd *watchdog

	// Firmware-reset recovery (see initFwRecovery): the driver's
	// journal replay, resets handled and journaled rules replayed.
	journal       func() int
	fwResets      uint64
	rulesReplayed uint64
}

// xmitScratch is one thread's cached transmit state: the cost and post
// callbacks are built once per (driver, thread) pair and read the
// per-call fields, replacing closures per transmitted segment.
type xmitScratch struct {
	b     *base
	t     *kernel.Thread
	qp    *queuePair
	descs int
	pkt   *netstack.Packet
	then  func()
	cost  func() time.Duration // cached sc.run
	postF func()               // cached sc.post
}

// run prices the descriptor write + doorbell on the thread's current
// node (evaluated at execution time, as the inline closure did).
func (sc *xmitScratch) run() time.Duration {
	cost := sc.qp.tx.DescRing().HostWrite(sc.t.Node(), sc.descs)
	cost += doorbellCPU
	// Doorbell flight time is charged to the device side via MMIOWrite
	// (it also accounts interconnect crossing if remote).
	return cost
}

// post runs at the done event of the descriptor write: the doorbell
// flies to the device, which takes a leased copy of the packet, and
// then the caller's chain continues. It reads every per-call field
// before then runs, since then may start the thread's next Xmit.
func (sc *xmitScratch) post() {
	qp, pkt, then := sc.qp, sc.pkt, sc.then
	sc.pkt, sc.then = nil, nil
	flight := qp.tx.PF().Endpoint().MMIOWrite(sc.t.Node())
	txPkt := qp.tx.PF().NIC().LeaseTxPacket()
	txPkt.Payload = pkt.Payload
	txPkt.Packets = pkt.Packets
	txPkt.Descriptors = sc.descs
	txPkt.Flow = pkt.Flow
	txPkt.Dst = pkt.DstMAC
	txPkt.Seq = pkt.Seq
	txPkt.Meta = pkt.Meta
	txPkt.OnSent = pkt.OnSent
	// The leased packet keeps its fragment backing array across
	// recycles; append re-fills it without reallocating.
	txPkt.Frags = append(txPkt.Frags, pkt.Frags...)
	sc.b.k.Engine().After(flight, txPkt.DeferPost(qp.tx))
	then()
}

// scratchFor returns (lazily creating) the thread's xmit scratch.
func (b *base) scratchFor(t *kernel.Thread) *xmitScratch {
	if b.scratch == nil {
		b.scratch = make(map[*kernel.Thread]*xmitScratch)
	}
	sc := b.scratch[t]
	if sc == nil {
		sc = &xmitScratch{b: b, t: t}
		sc.cost = sc.run
		sc.postF = sc.post
		b.scratch[t] = sc
	}
	return sc
}

// Bind attaches the driver to its host stack; must be called before
// traffic flows (drivers deliver received segments into the stack).
func (b *base) Bind(st *netstack.Stack) { b.stack = st }

// Name implements netstack.NetDevice.
func (b *base) Name() string { return b.name }

// TxQueueForCore implements netstack.NetDevice (the XPS map): queue i
// belongs to core i.
func (b *base) TxQueueForCore(c topology.CoreID) int { return int(c) }

// TxInFlight implements netstack.NetDevice.
func (b *base) TxInFlight(q int) int {
	if q < 0 || q >= len(b.pairs) {
		return 0
	}
	return b.pairs[q].tx.InFlight()
}

// buildQueues creates one rx/tx queue pair per core on the PF chosen
// by pfFor, with rings and packet buffers homed on the core's node and
// the interrupt targeted at that core (the paper's "descriptor ring per
// core with even distribution of interrupts").
func (b *base) buildQueues(mem *memsys.System, pfFor func(c topology.CoreID) *nic.PF) {
	topo := b.k.Topology()
	for c := 0; c < topo.NumCores(); c++ {
		core := topology.CoreID(c)
		node := topo.NodeOf(core)
		pf := pfFor(core)
		qp := &queuePair{core: core, node: node}

		compHome := node
		if b.params.RemoteDDIO {
			compHome = 0
		}
		rxComp := device.NewRing(mem, compHome, nic.RxRingEntries, nic.DescBytes)
		qp.rxDesc = device.NewRing(mem, node, nic.RxRingEntries, nic.DescBytes)
		bufs := make([]*memsys.Buffer, 0, nic.RxBufCount)
		for i := 0; i < nic.RxBufCount; i++ {
			bufs = append(bufs, mem.NewBuffer(node, nic.RxBufBytes))
		}
		qp.rxLine = b.k.Core(core).NewIRQLine(func() time.Duration { return b.napiRx(qp) })
		qp.rx = pf.AddRxQueue(rxComp, bufs, node, qp.rxLine.Raise)

		txDesc := device.NewRing(mem, node, nic.TxRingEntries, nic.DescBytes)
		txComp := device.NewRing(mem, compHome, nic.TxRingEntries, nic.DescBytes)
		qp.txLine = b.k.Core(core).NewIRQLine(func() time.Duration { return b.napiTx(qp) })
		qp.tx = pf.AddTxQueue(txDesc, txComp, node, qp.txLine.Raise)

		b.pairs = append(b.pairs, qp)
	}
	b.initDatapath()
	b.initWatchdog()
}

// Pollers returns the driver's busy-poll loops (busypoll datapath
// only; empty otherwise) — the fault injector's PollerStall targets.
func (b *base) Pollers() []*kernel.Poller {
	if b.pmd == nil {
		return nil
	}
	var out []*kernel.Poller
	for _, p := range b.pmd.pollers {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// napiRx is the NAPI poll: reap completions, charge driver+protocol
// per-packet costs, refill the ring, hand segments to the stack. Under
// the hybrid datapath the IRQ instead enters the pair's adaptive poll
// loop.
func (b *base) napiRx(qp *queuePair) time.Duration {
	if qp.hybrid != nil {
		return b.hybridEnter(qp)
	}
	var cost time.Duration
	batch := qp.rx.Reap(napiBudget)
	pkts := 0
	for _, rxp := range batch {
		// Read the completion entries the device wrote (the per-packet
		// LLC-miss of §5.1.1 when the write was remote).
		cost += qp.rx.CompletionRing().HostRead(qp.node, rxp.Packets)
		cost += b.stack.RxStackCost(rxp)
		pkts += rxp.Packets
		b.stack.DeliverRx(rxp)
	}
	if pkts > 0 {
		// Refill: post fresh buffers for the consumed descriptors.
		cost += qp.rxDesc.HostWrite(qp.node, pkts)
	}
	qp.rx.NapiComplete()
	return cost
}

// napiTx is the Tx NAPI poll: reap the completions, then re-arm. Under
// the hybrid datapath the IRQ instead enters the pair's adaptive poll
// loop.
func (b *base) napiTx(qp *queuePair) time.Duration {
	if qp.hybrid != nil {
		return b.hybridEnter(qp)
	}
	cost, _ := b.reapTx(qp, napiBudget)
	qp.tx.NapiComplete()
	return cost
}

// reapTx reaps up to budget Tx completions, for the NAPI poll and the
// poll loops alike: per-packet completion-entry reads and skb frees,
// then OnSent callbacks. Reap is the Tx recycle point: the driver owns
// the packet here and returns it to the NIC's pool. It returns the CPU
// cost and the completions reaped.
func (b *base) reapTx(qp *queuePair, budget int) (time.Duration, int) {
	batch := qp.tx.Reap(budget)
	var cost time.Duration
	for _, pkt := range batch {
		cost += qp.tx.CompletionRing().HostRead(qp.node, pkt.Packets)
		if pkt.Dropped && b.repost != nil && b.repost(qp, pkt) {
			// Re-posted on a surviving PF: ownership went back to the
			// device; OnSent fires when the re-send's completion reaps.
			continue
		}
		cost += time.Duration(pkt.Packets) * txFreePerPacket
		if pkt.OnSent != nil {
			pkt.OnSent()
		}
		pkt.Recycle()
	}
	return cost, len(batch)
}

// initFwRecovery wires firmware-reset recovery: a reset reaches the
// driver the way a carrier change does (async event + workqueue,
// linkEventDelay later), and the handler replays the driver's rule
// journal into the wiped tables; until then unprogrammed flows ride the
// firmware's fallback steering. The watchdog's stage-1 reprogram is the
// same replay. replay returns the rules it pushed.
func (b *base) initFwRecovery(n *nic.NIC, replay func() int) {
	b.journal = replay
	n.OnFirmwareReset(func() { b.k.Engine().After(linkEventDelay, b.onFwReset) })
}

// onFwReset counts the reset and replays the journal.
func (b *base) onFwReset() {
	b.fwResets++
	b.replayJournal()
}

// replayJournal replays the rule journal, counting the rules replayed.
func (b *base) replayJournal() {
	b.rulesReplayed += uint64(b.journal())
}

// Xmit implements netstack.NetDevice: descriptor write + doorbell on
// the caller's core, then (at its done event) the hardware takes over
// and then runs. Sockets and pktgen alike transmit through it.
func (b *base) Xmit(t *kernel.Thread, pkt *netstack.Packet, txq int, then func()) {
	if txq < 0 || txq >= len(b.pairs) {
		panic(fmt.Sprintf("driver %s: bad txq %d", b.name, txq))
	}
	descs := pkt.Descriptors
	if descs <= 0 {
		descs = 1
	}
	sc := b.scratchFor(t)
	sc.qp, sc.descs, sc.pkt, sc.then = b.pairs[txq], descs, pkt, then
	t.Submit(sc.cost, sc.postF)
}
