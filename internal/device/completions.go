package device

import (
	"time"

	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Completions is the completion side of a device queue, written once
// for the NIC's Rx and Tx queues and the NVMe queue pair: the entries
// whose writebacks have landed, in landing order, awaiting the driver,
// and the moderated interrupt that tells the driver so. Queues embed
// it and call Init once; the device calls Complete as each completion
// writeback lands.
//
// An entry reaches the driver in one of two ways. On the interrupt
// path the first visible entry arms a coalescing holdoff, and the
// interrupt that follows hands the queue to the driver's handler
// (NAPI): no further interrupt fires until the handler re-arms with
// NapiComplete. In poll mode (SetPolled) no interrupt ever fires and a
// poll loop drains the queue with Reap.
type Completions[T any] struct {
	// ready are the visible entries, oldest first.
	ready sim.Queue[T]
	// held are writebacks frozen device-side by a stall, in order.
	held []T

	eng     *sim.Engine
	ep      *pcie.Endpoint
	irqNode topology.NodeID
	onIRQ   func()
	holdoff time.Duration
	// visible is the owning queue's accounting for an entry becoming
	// visible (a stalled entry is accounted when the stall releases
	// it), or nil for none. It is a shared function, not a per-queue
	// closure: the entry leads back to its queue.
	visible func(T)

	napiActive bool
	polled     bool
	stalled    bool
	coalesce   sim.Timer
	fireFn     func() // cached c.fire
	onDeliver  func() // see OnDeliver

	interrupts uint64
}

// Init wires the completion side: interrupts go out through ep toward
// irqNode, where onIRQ (nil: never interrupt) handles them, after a
// coalescing holdoff (zero: as soon as an entry is visible and the
// handler is idle).
func (c *Completions[T]) Init(eng *sim.Engine, ep *pcie.Endpoint, irqNode topology.NodeID, onIRQ func(), holdoff time.Duration, visible func(T)) {
	c.eng = eng
	c.ep = ep
	c.irqNode = irqNode
	c.onIRQ = onIRQ
	c.holdoff = holdoff
	c.visible = visible
	c.fireFn = c.fire
}

// IRQNode returns the node whose core handles this queue's interrupts.
func (c *Completions[T]) IRQNode() topology.NodeID { return c.irqNode }

// Interrupts returns the interrupts this queue has raised.
func (c *Completions[T]) Interrupts() uint64 { return c.interrupts }

// Pending returns how many visible entries await the driver.
func (c *Completions[T]) Pending() int { return c.ready.Len() }

// Complete is a completion writeback landing: the entry becomes visible
// to the driver and may raise the interrupt. A stalled queue holds the
// writeback device-side instead (fault injection): the entry stays
// invisible until the stall clears.
func (c *Completions[T]) Complete(e T) {
	if c.stalled {
		c.held = append(c.held, e)
		return
	}
	c.deliver(e)
}

// deliver makes one entry visible — the tail of Complete, shared with
// the stall-release flush.
func (c *Completions[T]) deliver(e T) {
	if c.visible != nil {
		c.visible(e)
	}
	c.ready.Put(e)
	if c.onDeliver != nil {
		c.onDeliver()
	}
	c.maybeInterrupt()
}

// Reap removes up to budget visible entries, oldest first. The batch
// aliases the queue's storage (sim.Queue.PopN) and is valid until the
// next event that completes an entry on this queue or reaps it — i.e.
// for the synchronous driver loop consuming it.
func (c *Completions[T]) Reap(budget int) []T { return c.ready.PopN(budget) }

// NapiComplete ends the handler's ownership and re-enables the
// interrupt; if entries became visible meanwhile, it refires (the NAPI
// race resolution).
func (c *Completions[T]) NapiComplete() {
	c.napiActive = false
	c.maybeInterrupt()
}

// SetPolled switches the queue between interrupt and poll-mode
// operation. While polled, completions never raise interrupts and no
// coalesce timer is armed — a busy-poll driver consumes the queue with
// Reap directly. Leaving polled mode re-runs the interrupt decision, so
// entries that became visible during the polled window fire exactly
// once (the NAPI re-arm rule, same as NapiComplete).
func (c *Completions[T]) SetPolled(on bool) {
	if c.polled == on {
		return
	}
	c.polled = on
	if on {
		c.coalesce.Stop()
		return
	}
	c.maybeInterrupt()
}

// Polled reports whether the queue is in poll-mode operation.
func (c *Completions[T]) Polled() bool { return c.polled }

// OnDeliver registers fn to run whenever an entry becomes visible to
// the driver, polled or not: the wake of a busy-poll loop that sleeps
// while the rings it polls are empty.
func (c *Completions[T]) OnDeliver(fn func()) { c.onDeliver = fn }

// SetStalled freezes or releases completion delivery (QueueStall fault
// injection). Held writebacks still occupy ring entries, so a long
// stall fills the ring, exactly like real silicon. Releasing flushes
// every held writeback in landing order.
func (c *Completions[T]) SetStalled(on bool) {
	if c.stalled == on {
		return
	}
	c.stalled = on
	if !on {
		c.FlushStalled()
	}
}

// Stalled reports whether the queue is holding completions.
func (c *Completions[T]) Stalled() bool { return c.stalled }

// HeldCompletions returns writebacks held by an active stall.
func (c *Completions[T]) HeldCompletions() int { return len(c.held) }

// FlushStalled delivers every held completion now and returns how many
// there were — the driver-visible effect of a watchdog queue reset
// (re-initialize the queue, re-post descriptors, recover stranded
// writebacks). The stall flag itself is device state: if the fault
// window is still open, new completions stall again and the watchdog
// escalates.
func (c *Completions[T]) FlushStalled() int {
	held := c.held
	c.held = c.held[:0]
	for _, e := range held {
		c.deliver(e)
	}
	return len(held)
}

// maybeInterrupt fires the interrupt respecting poll mode, NAPI gating
// and the coalescing holdoff.
func (c *Completions[T]) maybeInterrupt() {
	if c.polled || c.napiActive || c.onIRQ == nil || c.Pending() == 0 {
		return
	}
	if c.holdoff == 0 {
		c.fire()
		return
	}
	if c.coalesce.Pending() {
		return
	}
	c.coalesce = c.eng.After(c.holdoff, c.fireFn)
}

func (c *Completions[T]) fire() {
	if c.polled || c.napiActive || c.Pending() == 0 {
		return
	}
	c.napiActive = true
	c.interrupts++
	c.ep.Interrupt(c.irqNode, c.onIRQ)
}
