// Package kernel models the operating system layer the paper modifies:
// cores that execute work run-to-completion (threads, softirqs and
// deferred work FIFO-share a core), kernel threads with affinity, the
// scheduler's thread migration (sched_setaffinity) with migration hooks
// — the notification path that drives ARFS and IOctoRFS updates — and
// NUMA-aware memory allocation.
package kernel

import (
	"fmt"
	"time"

	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// OS costs, calibrated to the testbed.
const (
	// irqEntry is the cost of taking a hardware interrupt.
	irqEntry time.Duration = 300 * time.Nanosecond
	// ContextSwitch is the cost of a thread context switch (charged on
	// wakeups that preempt and on migrations).
	ContextSwitch time.Duration = 1200 * time.Nanosecond
)

// Kernel is the OS instance of one simulated host.
type Kernel struct {
	eng   *sim.Engine
	topo  *topology.Server
	mem   *memsys.System
	cores []*Core

	migrateHooks []func(t *Thread, from, to topology.CoreID)
}

// New boots a kernel on the given hardware.
func New(e *sim.Engine, topo *topology.Server, mem *memsys.System) *Kernel {
	k := &Kernel{eng: e, topo: topo, mem: mem}
	for i := 0; i < topo.NumCores(); i++ {
		c := &Core{
			k:    k,
			id:   topology.CoreID(i),
			node: topo.NodeOf(topology.CoreID(i)),
		}
		c.queue = sim.NewQueue[coreWork](e)
		c.dispatchFn = c.dispatch
		c.completeFn = c.complete
		k.cores = append(k.cores, c)
		// The start event: work submitted before it runs at start,
		// with no wake of its own.
		e.After(0, c.dispatchFn)
	}
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Memory returns the host memory system.
func (k *Kernel) Memory() *memsys.System { return k.mem }

// Topology returns the hardware description.
func (k *Kernel) Topology() *topology.Server { return k.topo }

// Core returns a core handle.
func (k *Kernel) Core(id topology.CoreID) *Core {
	if int(id) < 0 || int(id) >= len(k.cores) {
		panic(fmt.Sprintf("kernel: no core %d", id))
	}
	return k.cores[id]
}

// NumCores returns the core count.
func (k *Kernel) NumCores() int { return len(k.cores) }

// Alloc allocates a buffer on the given NUMA node (the first-touch /
// local allocation policy production kernels use, §2.1).
func (k *Kernel) Alloc(node topology.NodeID, size int64) *memsys.Buffer {
	return k.mem.NewBuffer(node, size)
}

// OnMigrate registers a hook invoked after a thread migrates between
// cores; the network stack uses it for the ARFS flow-steering callback.
func (k *Kernel) OnMigrate(hook func(t *Thread, from, to topology.CoreID)) {
	k.migrateHooks = append(k.migrateHooks, hook)
}

// coreWork is one unit of work on a core's run queue. run executes when
// the core picks it up and returns how long the core is occupied; done
// (optional) fires when that time has elapsed.
type coreWork struct {
	run  func() time.Duration
	done func()
}

// Core is one CPU core: a FIFO run queue consumed run-to-completion.
// Interleaving threads, softirq and worker items by FIFO approximates
// the preemptive scheduler closely enough for throughput accounting
// while keeping the model deterministic.
//
// The dispatch loop is an engine-context state machine, not a process:
// no coroutine switch or goroutine hand-off sits between a work item
// and the core. It schedules, event for event, what the blocking-style
// loop "Get an item, run it, Sleep(d), schedule done" would as a
// process:
//
//   - a start event at boot (kernel.New);
//   - a zero-delay wake when work reaches an idle core (work arriving
//     while the core is starting, waking or running just queues);
//   - a completion event d after an item starts, where d is what its
//     run returned; the next queued item starts inside it;
//   - a zero-delay event for the item's done callback, scheduled at
//     completion before the next item runs.
//
// Keeping every one of those events (rather than, say, calling done
// inline) keeps the engine's dispatch order, Engine.Executed and so
// every simulated result the same as that loop's. The one exception is
// a dormant busy-poll loop (Poller): its empty iteration schedules no
// completion, and the core stays busy until Poller.Wake restores it.
type Core struct {
	k      *Kernel
	id     topology.CoreID
	node   topology.NodeID
	queue  *sim.Queue[coreWork]
	busy   time.Duration
	poller *Poller // the core's poll loop, or sharedCore; nil if none

	// idle is set when the queue ran dry with no event pending; any
	// other time a start, wake or completion event will dispatch the
	// queue, so new work just queues.
	idle       bool
	done       func() // in-flight item's completion callback
	dispatchFn func() // cached c.dispatch: the start and wake events
	completeFn func() // cached c.complete: the completion event
}

// BusyTime returns accumulated execution time, counting a dormant
// poll loop's iterations so far.
func (c *Core) BusyTime() time.Duration {
	if c.poller != nil {
		c.poller.settle()
	}
	return c.busy
}

// enqueue appends an item to the run queue, waking the core through a
// zero-delay event if it is idle, or its poll loop if that is dormant.
// Every submission path goes through it.
func (c *Core) enqueue(w coreWork) {
	if c.poller != nil {
		c.poller.Wake() // before the put: the loop may be queued first
	}
	c.queue.ForcePut(w)
	if c.idle {
		c.idle = false
		c.k.eng.After(0, c.dispatchFn)
	}
}

// dispatch starts the next queued item, or idles the core when there
// is none. It runs as the start and wake events and at the end of each
// completion.
func (c *Core) dispatch() {
	w, ok := c.queue.TryGet()
	if !ok {
		c.idle = true
		return
	}
	d := w.run()
	if d < 0 {
		d = 0
	}
	c.busy += d
	c.done = w.done
	if c.poller != nil && c.poller.dormant {
		return // an empty poll iteration: Poller.Wake schedules the completion
	}
	c.k.eng.After(d, c.completeFn)
}

// complete ends the running item: its done callback gets its own
// zero-delay event, so it runs from engine context after the core has
// moved on, and the next item starts now.
func (c *Core) complete() {
	if done := c.done; done != nil {
		c.done = nil
		c.k.eng.After(0, done)
	}
	c.dispatch()
}

// Submit enqueues work whose duration is computed when it starts
// running (so memory-system charges happen at execution time). done
// fires when it completes.
func (c *Core) Submit(run func() time.Duration, done func()) {
	c.enqueue(coreWork{run: run, done: done})
}

// SubmitFixed enqueues work of a known duration.
func (c *Core) SubmitFixed(d time.Duration, done func()) {
	c.Submit(func() time.Duration { return d }, done)
}

// Stall occupies the core with non-preemptible busywork for the given
// duration: queued work items and newly raised interrupts wait behind
// it, exactly as behind any other run-to-completion item. Fault
// injection uses it to model firmware-level stalls (SMIs, thermal
// throttling events) and — with a long duration — a core going offline.
func (c *Core) Stall(d time.Duration) {
	if d <= 0 {
		return
	}
	c.SubmitFixed(d, nil)
}

// IRQLine is a prepared interrupt vector — the MSI-X table entry a
// driver programs per queue. Raising it delivers a hardware interrupt
// to its core: the handler runs, after the IRQ entry cost, in FIFO
// order behind the core's queued work. Interrupts preempt in real
// kernels; FIFO placement is close enough at the interrupt rates the
// model produces (coalesced NAPI). The entry-cost wrapper is built
// once when the driver wires its queues, so raising an interrupt on
// the hot path allocates nothing.
type IRQLine struct {
	c       *Core
	handler func() time.Duration
	run     func() time.Duration
}

// NewIRQLine prepares an interrupt vector targeting this core.
func (c *Core) NewIRQLine(handler func() time.Duration) *IRQLine {
	l := &IRQLine{c: c, handler: handler}
	l.run = func() time.Duration { return irqEntry + l.handler() }
	return l
}

// Raise delivers the interrupt.
func (l *IRQLine) Raise() {
	l.c.enqueue(coreWork{run: l.run})
}
