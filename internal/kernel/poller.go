package kernel

import (
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Poller is a busy-poll loop pinned to a core: the DPDK-style PMD
// thread. Each iteration runs through the core's ordinary dispatch
// loop, so the spin time lands in the core's BusyTime integral — a
// busy-polling core reads as 100% occupied, which keeps the
// CPU-efficiency figures honest — and any other work submitted to the
// core (IRQs for queues still in interrupt mode, stalls from fault
// injection) FIFO-interleaves with the poll iterations instead of
// starving.
//
// The loop self-resubmits through the iteration's done callback rather
// than running as a Thread, so no process switch is involved. An
// iteration that finds work costs three events — the core's
// completion, the done event that resubmits, and the wake that starts
// the next iteration — all in engine context and allocation-free
// (coreWork is a value type and the run/resubmit closures are built
// once here).
//
// An iteration that finds nothing costs no events. It changes nothing
// and the next one would cost the same, so a run of them is a function
// of its start time alone. A loop alone on its core with nothing else
// queued goes dormant after an empty iteration: the core stays busy
// but schedules no completion, and a ledger (the iteration's start and
// cost) stands in for the iterations that follow, counted on demand by
// Iterations, DormantIterations and the core's BusyTime. Wake ends the
// stretch (DESIGN.md §9).
type Poller struct {
	c       *Core
	body    func() (time.Duration, bool)
	run     func() time.Duration // cached dispatch wrapper
	resub   func()               // cached self-resubmission
	stopped bool
	dormant bool // the ledger stands in for the loop's events

	// wedgeFor is consumed by the next iteration: instead of polling,
	// the loop burns the core for that long — a hung register read or
	// firmware doorbell that never returns — then resumes. Set by
	// Wedge (fault injection).
	wedgeFor   time.Duration
	iterations uint64

	// The ledger: the start and cost of the last iteration counted, and
	// how many iterations it has counted in all.
	at          sim.Time
	cost        time.Duration
	dormantIter uint64
}

// sharedCore marks a core that runs more than one poll loop. There the
// loops take turns, and a ledger would have to account for its
// sibling's turns too, so neither keeps one: both run event by event.
var sharedCore = new(Poller)

// StartPoller pins a busy-poll loop to this core. body runs once per
// iteration and returns how long the iteration occupied the core (the
// fixed poll cost plus whatever work the burst did) and whether it
// found work. The duration must be positive, or the loop would spin at
// a single instant of simulated time. An iteration reporting no work
// must have changed nothing that a later iteration reads: until Wake,
// the loop assumes every iteration finds nothing and costs the same.
// The loop runs until Stop.
func (c *Core) StartPoller(body func() (time.Duration, bool)) *Poller {
	p := &Poller{c: c, body: body}
	p.run = func() time.Duration {
		if p.stopped {
			return 0
		}
		if w := p.wedgeFor; w > 0 {
			// One pathologically long iteration that never reaches the
			// rings: the core reads as busy (it is — spinning on a dead
			// device) but Iterations stays flat, which is exactly the
			// liveness signal a driver watchdog keys on.
			p.wedgeFor = 0
			return w
		}
		d, work := p.body()
		if d <= 0 {
			panic("kernel: poller iteration must consume time")
		}
		p.iterations++
		// Nothing found and nothing else to run: the ledger takes over.
		// A loop the body itself stopped or wedged stays awake, so the
		// next iteration sees it.
		if !work && !p.stopped && p.wedgeFor == 0 && c.poller == p && c.queue.Len() == 0 {
			p.dormant = true
			p.at = c.k.eng.Now()
			p.cost = d
		}
		return d
	}
	p.resub = func() {
		if p.stopped {
			return
		}
		c.enqueue(coreWork{run: p.run, done: p.resub})
	}
	if c.poller == nil {
		c.poller = p
	} else {
		c.poller.Wake()
		c.poller = sharedCore
	}
	p.resub()
	return p
}

// An awake loop's iteration ending at T runs three events at T: the
// completion, scheduled when the iteration started, so before every
// event scheduled later for T; the done that resubmits the loop, one
// zero-delay hop later; and the wake that starts the next iteration,
// two hops later (sim.Engine.Hop). The ledger places its code at T
// among them by hop: code at hop h runs after the loop's events of
// hop h-1 and before those of hop h. That holds for code whose chain
// of zero-delay events started from an event scheduled before the
// completion; one scheduled for T less than cost before T sorts after
// the completion instead, the ledger's one residual tie.
const hopWake = 2

// settle counts the iterations a dormant loop has started by now;
// iteration j of the ledger starts at at + j·cost. The one starting at
// now has started only for code behind its wake: between Run calls,
// and inside an event more than hopWake hops from its instant's first
// events.
func (p *Poller) settle() {
	if !p.dormant {
		return
	}
	eng := p.c.k.eng
	elapsed := eng.Now().Sub(p.at)
	if eng.Hop() <= hopWake {
		elapsed-- // strictly before now
	}
	n := int64(elapsed / p.cost)
	if n <= 0 {
		return
	}
	p.iterations += uint64(n)
	p.dormantIter += uint64(n)
	busy := time.Duration(n) * p.cost
	p.c.busy += busy
	p.at = p.at.Add(busy)
}

// Wake ends a dormant stretch: it settles the ledger and restores the
// events of the iteration in progress as an awake loop would have them
// now. Usually that is the core's completion at the iteration's end,
// whose done resubmits the loop; if the iteration ends now and an
// awake loop's done has already run, it is the resubmission itself, so
// work queued behind the wake runs after the next iteration. Wake is a
// no-op on an awake loop. Whatever can give the loop work calls it:
// completions becoming visible on the rings the body polls, work
// reaching the core (Core.enqueue), Wedge, Stop and a second loop
// starting on the core.
func (p *Poller) Wake() {
	if !p.dormant {
		return
	}
	p.settle()
	p.dormant = false
	c, eng := p.c, p.c.k.eng
	end := p.at.Add(p.cost)
	if end == eng.Now() && eng.Hop() == hopWake {
		// The awake loop's completion and done have run: the core went
		// idle and the done resubmitted the loop.
		c.done = nil
		c.idle = true
		p.resub()
		return
	}
	eng.At(end, c.completeFn)
}

// Wedge hangs the poll loop for d starting at its next dispatch: the
// core burns the whole duration in a single iteration without touching
// the rings, then the loop resumes on its own. Subsequent wedges before
// dispatch accumulate.
func (p *Poller) Wedge(d time.Duration) {
	if d <= 0 {
		return
	}
	p.Wake()
	p.wedgeFor += d
}

// Iterations counts completed (non-wedged) poll iterations — the
// liveness counter a driver watchdog samples to detect a wedged loop.
func (p *Poller) Iterations() uint64 {
	p.settle()
	return p.iterations
}

// DormantIterations counts the iterations among Iterations that the
// ledger accounted instead of running the body: each was an empty poll
// costing what the iteration that went dormant cost.
func (p *Poller) DormantIterations() uint64 {
	p.settle()
	return p.dormantIter
}

// Node is the NUMA node of the core the loop is pinned to.
func (p *Poller) Node() topology.NodeID { return p.c.node }

// Stop ends the loop: the current iteration (if one is queued or
// running) completes at zero further cost and nothing is resubmitted.
func (p *Poller) Stop() {
	p.stopped = true
	p.Wake()
}
