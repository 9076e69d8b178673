// Poll-mode (DPDK-style) datapaths: instead of the IRQ→softirq→NAPI
// chain, dedicated cores spin on the Rx/Tx rings in batched bursts and
// hand received segments straight to the sockets. Three modes:
//
//   - DatapathInterrupt: the default NAPI path, untouched.
//   - DatapathBusyPoll: every queue is switched to polled mode at
//     construction (no interrupts, no coalesce timers, ever) and one
//     dedicated poll core per NUMA node — the last core of the node, so
//     workload pinning on the low cores is undisturbed — spins on all
//     of the node's queue pairs. The spin burns the core by
//     construction: busy-poll occupancy lands in the core's BusyTime
//     integral through kernel.Poller, so CPU-efficiency figures show
//     the true cost of the bypass.
//   - DatapathHybrid: adaptive polling. The queue pair runs in
//     interrupt mode until an IRQ arrives, then switches itself to
//     polled mode and spins on its own core while traffic keeps the
//     ring non-empty; after hybridIdlePolls consecutive empty polls it
//     re-arms the interrupt (completions that landed meanwhile refire
//     it exactly once — the NAPI re-arm rule).
//
// Burst processing reuses the queues' Poll/Reap backing arrays (the
// PR 4 scheme) and every loop body, cost callback and work item below
// is built once at construction, so the steady-state poll path
// allocates nothing (BenchmarkBusyPollPath gates this).
package driver

import (
	"fmt"
	"time"

	"ioctopus/internal/kernel"
	"ioctopus/internal/topology"
)

// The poll-mode constants.
const (
	// burstSize bounds segments per Rx/Tx burst.
	burstSize = 32
	// pollCost is the fixed CPU price of one poll-loop iteration (the
	// ring tail checks), charged whether or not the rings had work. It
	// must be positive: a free iteration would spin the poll core at a
	// single instant of simulated time.
	pollCost = 200 * time.Nanosecond
	// hybridIdlePolls is how many consecutive empty poll iterations the
	// hybrid datapath spins through before re-arming the interrupt.
	hybridIdlePolls = 16
)

// Datapath selects how completions reach the driver.
type Datapath int

// Datapaths. The zero value is the interrupt path so that existing
// configs (and the serialized zero value) mean "exactly today's
// behavior".
const (
	DatapathInterrupt Datapath = iota
	DatapathBusyPoll
	DatapathHybrid
)

// String returns the CLI/scenario spelling.
func (d Datapath) String() string {
	switch d {
	case DatapathInterrupt:
		return "interrupt"
	case DatapathBusyPoll:
		return "busypoll"
	case DatapathHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Datapath(%d)", int(d))
}

// ParseDatapath maps the scenario spelling back; the empty string
// is the default (interrupt).
func ParseDatapath(s string) (Datapath, error) {
	switch s {
	case "", "interrupt":
		return DatapathInterrupt, nil
	case "busypoll":
		return DatapathBusyPoll, nil
	case "hybrid":
		return DatapathHybrid, nil
	}
	return 0, fmt.Errorf("driver: unknown datapath %q (want interrupt, busypoll or hybrid)", s)
}

// pmdStats are the poll-mode counters exported under the driver's
// pmd/ metrics scope.
type pmdStats struct {
	polls      uint64 // poll-loop iterations that ran (see counts)
	emptyPolls uint64 // those that found no work in any direction
	bursts     uint64 // non-empty Rx/Tx bursts processed
	burstPkts  uint64 // segments across those bursts (occupancy numerator)
	// pollers/pollerPairs are indexed by NUMA node (nil/empty for nodes
	// without queue pairs); the watchdog's PMD fallback needs to know
	// which pairs a wedged loop owns.
	pollers     []*kernel.Poller
	pollerPairs [][]*queuePair
}

// initDatapath arms the configured poll-mode machinery after the queue
// pairs exist; called from buildQueues, a no-op for the interrupt path.
func (b *base) initDatapath() {
	switch b.datapath {
	case DatapathBusyPoll:
		b.pmd = &pmdStats{}
		b.startPollers()
	case DatapathHybrid:
		b.pmd = &pmdStats{}
		for _, qp := range b.pairs {
			h := &hybridState{b: b, qp: qp}
			h.runFn = h.iterate
			qp.hybrid = h
		}
	}
}

// startPollers switches every queue to polled mode and pins one
// busy-poll loop per NUMA node, on the node's last core, spinning over
// that node's queue pairs.
func (b *base) startPollers() {
	topo := b.k.Topology()
	b.pmd.pollers = make([]*kernel.Poller, topo.NumNodes())
	b.pmd.pollerPairs = make([][]*queuePair, topo.NumNodes())
	for n := 0; n < topo.NumNodes(); n++ {
		node := topology.NodeID(n)
		var pairs []*queuePair
		for _, qp := range b.pairs {
			if qp.node != node {
				continue
			}
			pairs = append(pairs, qp)
			qp.rx.SetPolled(true)
			qp.tx.SetPolled(true)
		}
		if len(pairs) == 0 {
			continue
		}
		cores := topo.CoresOn(node)
		pollCore := cores[len(cores)-1].ID
		owned := pairs // bind the per-node slice once; the body reuses it
		p := b.k.Core(pollCore).StartPoller(func() (time.Duration, bool) {
			return b.poll(owned...)
		})
		// A completion on any owned ring wakes a dormant loop, whether
		// the queue is polled or, during a watchdog fallback, not: the
		// loop polls its rings either way. One closure per loop.
		wake := p.Wake
		for _, qp := range owned {
			qp.rx.OnDeliver(wake)
			qp.tx.OnDeliver(wake)
		}
		b.pmd.pollers[n] = p
		b.pmd.pollerPairs[n] = owned
	}
}

// poll is one poll-loop iteration, busy-poll or hybrid: a fixed
// tail-check cost plus one Rx and one Tx burst per pair, counted as one
// poll (an empty one when no burst found work). It reports whether any
// burst found work; an empty iteration costs exactly pollCost and
// touches no memory.
func (b *base) poll(pairs ...*queuePair) (time.Duration, bool) {
	cost := pollCost
	work := 0
	for _, qp := range pairs {
		c, n := b.burstRx(qp)
		cost += c
		work += n
		c, n = b.burstTx(qp)
		cost += c
		work += n
	}
	b.pmd.polls++
	if work == 0 {
		b.pmd.emptyPolls++
	}
	return cost, work > 0
}

// counts returns the poll iterations and the empty ones among them. A
// dormant busy-poll loop runs no body, so the iterations its ledger
// accounted are added to both: each was an empty poll.
func (s *pmdStats) counts() (polls, empty uint64) {
	polls, empty = s.polls, s.emptyPolls
	for _, p := range s.pollers {
		if p != nil {
			n := p.DormantIterations()
			polls += n
			empty += n
		}
	}
	return polls, empty
}

// burstRx drains up to one burst of received segments straight into the
// sockets via the stack's burst-delivery path: completion-entry reads
// and ring refill are priced as on the NAPI path, but the per-packet
// softirq overhead and the IRQ entry never happen. The batch is a view
// into the queue's reused backing array; DeliverRxBurst transfers
// ownership of every segment in it.
func (b *base) burstRx(qp *queuePair) (time.Duration, int) {
	batch := qp.rx.Poll(burstSize)
	if len(batch) == 0 {
		return 0, 0
	}
	var cost time.Duration
	pkts := 0
	for _, rxp := range batch {
		cost += qp.rx.CompletionRing().HostRead(qp.node, rxp.Packets)
		pkts += rxp.Packets
	}
	cost += b.stack.DeliverRxBurst(batch)
	cost += qp.rxDesc.HostWrite(qp.node, pkts)
	b.pmd.bursts++
	b.pmd.burstPkts += uint64(len(batch))
	return cost, len(batch)
}

// burstTx reaps up to one burst of Tx completions through the NAPI
// path's reap; only the caller and its pricing differ.
func (b *base) burstTx(qp *queuePair) (time.Duration, int) {
	cost, n := b.reapTx(qp, burstSize)
	if n > 0 {
		b.pmd.bursts++
		b.pmd.burstPkts += uint64(n)
	}
	return cost, n
}

// hybridState is one queue pair's adaptive-polling loop.
type hybridState struct {
	b      *base
	qp     *queuePair
	active bool
	idle   int
	runFn  func() time.Duration // cached iterate, for Core.Submit
}

// hybridEnter runs in the queue pair's IRQ context: switch the pair to
// polled mode and run the first poll iteration right there; the loop
// then self-submits on the same core until it goes idle.
func (b *base) hybridEnter(qp *queuePair) time.Duration {
	h := qp.hybrid
	if h.active {
		// The other direction's IRQ raced the loop entry; the active
		// loop already polls both rings.
		return 0
	}
	h.active = true
	h.idle = 0
	qp.rx.SetPolled(true)
	qp.tx.SetPolled(true)
	return h.iterate()
}

// iterate is one adaptive-poll iteration over both directions. Work
// resets the idle count; hybridIdlePolls consecutive empty iterations
// end the loop and re-arm the interrupt.
func (h *hybridState) iterate() time.Duration {
	cost, work := h.b.poll(h.qp)
	if work {
		h.idle = 0
	} else {
		h.idle++
	}
	if h.idle >= hybridIdlePolls {
		h.exit()
		return cost
	}
	h.b.k.Core(h.qp.core).Submit(h.runFn, nil)
	return cost
}

// exit leaves polled mode. SetPolled(false) and NapiComplete re-run the
// interrupt decision with NAPI gating cleared, so completions that
// arrived during the polled window fire the interrupt exactly once.
func (h *hybridState) exit() {
	h.active = false
	h.qp.rx.SetPolled(false)
	h.qp.tx.SetPolled(false)
	h.qp.rx.NapiComplete()
	h.qp.tx.NapiComplete()
}
