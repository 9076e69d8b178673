package driver

import (
	"fmt"
	"sort"

	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Octo is the octoNIC driver (§4.2): the IOctopus mode of the team
// driver. It presents the whole multi-PF device as ONE netdevice with
// one MAC and one IP. Each core's queue pair lives on the PF local to
// that core's node, so:
//
//   - transmits go through the PCIe endpoint local to the sending CPU:
//     Tx queue i belongs to core i (the XPS map), and that core's
//     queue pair sits on its local PF;
//   - the ARFS callback becomes an IOctoRFS update: the flow's MPFS
//     rule moves to the PF (and queue) local to the thread's new core,
//     pushed to the device asynchronously by a kernel worker;
//   - a scanner thread periodically expires stale rules, as the Linux
//     ARFS implementation does.
type Octo struct {
	base
	nic *nic.NIC

	// rxSlot[core] = the queue index of that core's rx queue *within
	// its PF* (IOctoRFS rules name per-PF queues).
	rxSlot []int
	pfIdx  []int // per-core PF index

	// updates feeds the MPFS worker, which waits on updated while it
	// is empty.
	updates sim.Queue[steerUpdate]
	updated *sim.Signal
	rules   map[eth.FiveTuple]*steerRule

	// Steering counters (steer/... in the registry): updates queued
	// and written to the device by the worker, and rules the expiry
	// scanner removed.
	updatesPushed  uint64
	updatesApplied uint64
	rulesExpired   uint64

	// Failover state (§2.5: "the team driver can migrate every flow to
	// the surviving PF"). remap[core] is the core whose queue pair
	// carries core's traffic — itself while every link is up; a core
	// whose local PF died is remapped to a surviving core, so both XPS
	// (TxQueueForCore) and re-steered IOctoRFS rules route around the
	// dead limb. Only single-PF failure is handled; with every PF down
	// there is nothing to fail over to and losses fall through to
	// retransmission.
	remap  []topology.CoreID
	downPF int // index of the failed PF, -1 while all links are up

	// parked holds Dropped Tx completions reaped before a failover (or
	// failback) gave them a live queue; the link handler flushes them in
	// arrival order once the remap lands.
	parked []parkedTx

	// Failover counters (failover/... in the registry): transitions
	// each way, Tx segments re-posted onto a surviving PF, and rules
	// re-steered.
	failovers      uint64
	failbacks      uint64
	reposted       uint64
	rulesResteered uint64

	// parkedOverflow counts segments given up at the MaxParked cap
	// during a total outage (released to the pool; retransmission
	// recovers the data). concurrentIgnored counts link-down events
	// ridden out because another PF's failure was already being handled
	// — the single-failure contract, DESIGN.md §10.
	parkedOverflow    uint64
	concurrentIgnored uint64
}

// parkedTx is a stranded Tx segment awaiting a live queue.
type parkedTx struct {
	qp  *queuePair
	pkt *nic.TxPacket
}

type steerUpdate struct {
	ft        eth.FiveTuple
	pf, queue int
}

type steerRule struct {
	pf, queue int
	// core is the flow's home core (the ARFS target), kept so failover
	// can re-steer relative to it and failback can restore it.
	core      topology.CoreID
	refreshed sim.Time
}

var _ netstack.NetDevice = (*Octo)(nil)

// NewOcto builds the octoNIC driver over a multi-PF NIC running the
// IOctopus firmware, completions delivered by dp. Every node must have
// a PF (that is the octoNIC wiring contract).
func NewOcto(k *kernel.Kernel, mem *memsys.System, n *nic.NIC, name string, params Params, dp Datapath) *Octo {
	d := &Octo{
		base:    base{k: k, name: name, params: params, datapath: dp},
		nic:     n,
		updated: sim.NewSignal(k.Engine()),
		rules:   make(map[eth.FiveTuple]*steerRule),
	}
	topo := k.Topology()
	perPFCount := make(map[int]int)
	pfByNode := make(map[topology.NodeID]*nic.PF)
	for _, pf := range n.PFs() {
		pfByNode[pf.Node()] = pf
	}
	for c := 0; c < topo.NumCores(); c++ {
		node := topo.NodeOf(topology.CoreID(c))
		pf, ok := pfByNode[node]
		if !ok {
			panic(fmt.Sprintf("driver %s: octoNIC has no PF on node %d", name, node))
		}
		d.pfIdx = append(d.pfIdx, pf.Index())
		d.rxSlot = append(d.rxSlot, perPFCount[pf.Index()])
		perPFCount[pf.Index()]++
	}
	d.buildQueues(mem, func(c topology.CoreID) *nic.PF {
		return n.PF(d.pfIdx[c])
	})
	d.remap = make([]topology.CoreID, topo.NumCores())
	for c := range d.remap {
		d.remap[c] = topology.CoreID(c)
	}
	d.downPF = -1
	d.base.repost = d.repostDropped
	// Carrier changes reach the driver through the link-state interrupt
	// and a workqueue, not instantaneously: the handler runs
	// linkEventDelay after the PHY event. Descriptors posted into the
	// dead PF during that window complete flagged Dropped and are
	// re-posted by repostDropped once the remap is in place.
	n.OnLinkChange(func(pf int, up bool) {
		d.k.Engine().After(linkEventDelay, func() { d.onLinkChange(pf, up) })
	})
	// Firmware-reset recovery (and the watchdog's stage 1) replays the
	// IOctoRFS journal; until then unprogrammed flows ride the
	// firmware's RSS fallback.
	d.initFwRecovery(n, d.replayRules)
	// The watchdog's stage 2 (a no-op while it is disabled) feeds the
	// failover path as if the PF's carrier had dropped.
	if d.base.wd != nil {
		d.base.wd.setPFUp = d.onLinkChange
	}
	d.startWorker()
	d.startExpiryScanner()
	return d
}

// HWAddr implements netstack.NetDevice: the device's single MAC.
func (d *Octo) HWAddr() eth.MAC { return d.nic.MAC() }

// SteerFlow implements netstack.NetDevice: the IOctoRFS update. The
// mapping to (PF, queue) is computed here; the device table write is
// pushed through the asynchronous kernel worker (§4.2: "the MPFS table
// is updated asynchronously by a separate kernel worker thread").
func (d *Octo) SteerFlow(ft eth.FiveTuple, core topology.CoreID) {
	// During failover the flow's home core may sit on the dead PF;
	// steer to the remapped core's queue while remembering the home so
	// failback can restore it.
	tc := d.remap[core]
	pf, queue := d.pfIdx[tc], d.rxSlot[tc]
	now := d.k.Engine().Now()
	if r, ok := d.rules[ft]; ok {
		r.refreshed = now
		r.core = core
		if r.pf == pf && r.queue == queue {
			return // already steered correctly; just refreshed
		}
		r.pf, r.queue = pf, queue
	} else {
		d.rules[ft] = &steerRule{pf: pf, queue: queue, core: core, refreshed: now}
	}
	d.updatesPushed++
	d.updates.Put(steerUpdate{ft: ft, pf: pf, queue: queue})
	d.updated.Broadcast()
}

// TxQueueForCore implements netstack.NetDevice: normally queue i
// belongs to core i; while a PF is down, cores local to it transmit
// through the queue pair of the surviving core they were remapped to.
func (d *Octo) TxQueueForCore(c topology.CoreID) int { return int(d.remap[c]) }

// onLinkChange is the team driver's failover engine, registered with
// the device. Link down: remap every core whose local PF died onto
// surviving cores and re-steer all IOctoRFS rules through the async
// MPFS worker (recovery latency is the worker's real re-programming
// cost). Link up: restore the home mapping the same way. Pending Tx
// descriptors on the dead PF are not touched here — their completions
// come back flagged Dropped and repostDropped re-posts them on the
// surviving PF.
func (d *Octo) onLinkChange(pf int, up bool) {
	if !up {
		if d.downPF != -1 {
			// Single-failure contract (DESIGN.md §10): a second
			// concurrent PF failure is ridden out, not handled — with
			// one PF already down there is no healthy limb to remap the
			// second one's flows onto. Counted so operators can see how
			// often the contract was actually exercised.
			d.concurrentIgnored++
			return
		}
		// Collect surviving cores (deterministic order: core id).
		var survivors []topology.CoreID
		for c := range d.pfIdx {
			if d.pfIdx[c] != pf && d.nic.PF(d.pfIdx[c]).LinkUp() {
				survivors = append(survivors, topology.CoreID(c))
			}
		}
		if len(survivors) == 0 {
			return // total outage: nothing to fail over to
		}
		d.downPF = pf
		d.failovers++
		i := 0
		for c := range d.remap {
			if d.pfIdx[c] == pf {
				d.remap[c] = survivors[i%len(survivors)]
				i++
			} else {
				d.remap[c] = topology.CoreID(c)
			}
		}
		d.resteerAll()
		d.flushParked()
		return
	}
	if d.downPF != pf {
		return
	}
	d.downPF = -1
	d.failbacks++
	for c := range d.remap {
		d.remap[c] = topology.CoreID(c)
	}
	d.resteerAll()
	d.flushParked()
}

// flushParked re-posts every parked segment whose remapped queue is now
// on a live link, preserving arrival order; segments whose target is
// still dead stay parked for the next transition.
func (d *Octo) flushParked() {
	pending := d.parked
	d.parked = d.parked[:0]
	for _, p := range pending {
		if !d.post(p.qp, p.pkt) {
			d.parked = append(d.parked, p)
		}
	}
}

// post re-posts a recovered segment on the remapped core's queue (after
// the doorbell flight, as any post); false if that link is down too.
func (d *Octo) post(qp *queuePair, pkt *nic.TxPacket) bool {
	nq := d.pairs[d.remap[qp.core]]
	if !nq.tx.PF().LinkUp() {
		return false
	}
	pkt.Dropped = false
	d.reposted++
	flight := nq.tx.PF().Endpoint().MMIOWrite(qp.node)
	d.k.Engine().After(flight, pkt.DeferPost(nq.tx))
	return true
}

// resteerAll re-pushes every installed rule at its (possibly remapped)
// target, in deterministic 5-tuple order, through the async worker,
// skipping rules already at their target.
func (d *Octo) resteerAll() { d.resteer(false) }

// replayRules is the firmware-recovery twin of resteerAll: after a
// table wipe the device-side state is gone, so every journaled rule is
// re-pushed unconditionally — "unchanged" driver-side state means
// nothing to a device that forgot it. Returns rules replayed.
func (d *Octo) replayRules() int { return d.resteer(true) }

// resteer walks the rule journal and pushes updates through the async
// worker; force re-pushes even rules whose target is unchanged (the
// firmware-reset repair). Recovery latency is honest either way: each
// update pays the worker's MPFS delay and CPU cost.
func (d *Octo) resteer(force bool) int {
	fts := make([]eth.FiveTuple, 0, len(d.rules))
	for ft := range d.rules {
		fts = append(fts, ft)
	}
	sortTuples(fts)
	n := 0
	for _, ft := range fts {
		r := d.rules[ft]
		tc := d.remap[r.core]
		pf, queue := d.pfIdx[tc], d.rxSlot[tc]
		if !force && r.pf == pf && r.queue == queue {
			continue
		}
		r.pf, r.queue = pf, queue
		if !force {
			d.rulesResteered++
		}
		d.updatesPushed++
		n++
		d.updates.Put(steerUpdate{ft: ft, pf: pf, queue: queue})
		d.updated.Broadcast()
	}
	return n
}

// repostDropped recovers a Tx segment whose completion came back
// flagged Dropped: re-post it on the remapped core's queue, or park it
// until a link transition provides a live one. Returns true when the
// driver took ownership (re-posted or parked), so napiTx neither
// recycles the packet nor reports it sent; returns false when the
// parked list is at its cap — the segment is given up to napiTx's
// normal completion path (freed, OnSent, recycled), modeling a driver
// that drops the skb during a total outage and lets retransmission
// recover the data.
func (d *Octo) repostDropped(qp *queuePair, pkt *nic.TxPacket) bool {
	if d.post(qp, pkt) {
		return true
	}
	// The remap hasn't landed yet (the carrier event is still in flight
	// to the handler) or the target is dead too: park the segment; the
	// next link transition re-posts it. Ownership stays with the driver,
	// so napiTx must not recycle it.
	if len(d.parked) >= MaxParked {
		d.parkedOverflow++
		return false
	}
	d.parked = append(d.parked, parkedTx{qp: qp, pkt: pkt})
	return true
}

// startWorker launches the MPFS update worker thread (pinned to core 0,
// as an unbound kworker would typically land).
func (d *Octo) startWorker() {
	d.k.Spawn(d.name+":mpfs-worker", 0, func(t *kernel.Thread) {
		for {
			for d.updates.Len() == 0 {
				t.Wait(d.updated)
			}
			u := d.updates.Pop()
			t.Sleep(mpfsUpdateDelay)
			t.Exec(mpfsUpdateCPU)
			if fw := d.nic.Firmware(); fw != nil {
				fw.ProgramFlow(u.ft, u.pf, u.queue)
			}
			d.updatesApplied++
		}
	})
}

// startExpiryScanner launches the periodic rule reaper.
func (d *Octo) startExpiryScanner() {
	d.k.Spawn(d.name+":rule-expiry", 0, func(t *kernel.Thread) {
		for {
			t.Sleep(expiryScanPeriod)
			now := t.Now()
			expired := d.expiredRules(now)
			for _, ft := range expired {
				delete(d.rules, ft)
				d.rulesExpired++
				if fw := d.nic.Firmware(); fw != nil {
					fw.RemoveFlow(ft)
				}
				t.Exec(mpfsUpdateCPU)
			}
		}
	})
}

// expiredRules returns stale rules in a deterministic order (map
// iteration order would leak into event ordering otherwise).
func (d *Octo) expiredRules(now sim.Time) []eth.FiveTuple {
	// Raw arithmetic, not Time.Add: Add clamps negative results, which
	// would mark everything expired while now < ruleExpiry.
	cutoff := now - sim.Time(ruleExpiry)
	var expired []eth.FiveTuple
	for ft, r := range d.rules {
		if r.refreshed < cutoff {
			expired = append(expired, ft)
		}
	}
	sortTuples(expired)
	return expired
}

// sortTuples orders 5-tuples canonically (rule iteration must never
// inherit map order, which would leak into event ordering).
func sortTuples(fts []eth.FiveTuple) {
	sort.Slice(fts, func(i, j int) bool {
		a, b := fts[i], fts[j]
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
}
