// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and an event heap.
// All model components (cores, links, devices) schedule callbacks on the
// engine; nothing in the simulation reads wall-clock time, so a run with a
// fixed seed is exactly reproducible.
//
// Two programming styles are supported: plain event callbacks
// (Engine.At/After) and blocking processes (Engine.Go), SimPy style.
// A process is a coroutine (iter.Pull), not a free-running goroutine:
// an event callback switches into it and gets control back when it
// blocks, so only one piece of model code ever runs at a time and
// determinism is preserved without locks or channel hand-offs. Hot
// components that need no blocking style (the kernel's per-core
// dispatch loop, for one) are plain event-driven state machines.
//
// The event queue is an inlined value-based 4-ary min-heap ordered by
// (at, seq): events at the same instant dispatch in the order they were
// scheduled, and so hop by hop (see Hop). Event records live in a slot
// arena recycled through a free list, so steady-state scheduling and
// dispatch allocate nothing; cancellation is lazy (a generation check
// at pop time) to keep Stop O(1) without disturbing the heap.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the start
// of the run.
type Time int64

// Common time units, usable as time.Duration values in model code.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t. Negative results are clamped to t so a
// subtraction bug in a cost model cannot move the clock backwards.
func (t Time) Add(d time.Duration) Time {
	nt := t + Time(d)
	if nt < t && d > 0 { // overflow
		return Time(math.MaxInt64)
	}
	if nt < 0 {
		return t
	}
	return nt
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the timestamp as a float number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// heapEntry is one queued event in the 4-ary min-heap. The callback
// lives in the slot arena; the entry holds only ordering keys plus the
// (slot, gen) reference that validates it at pop time.
type heapEntry struct {
	at   Time
	seq  uint64 // FIFO tie-break among same-instant events
	slot int32
	gen  uint32
}

// less orders entries by (at, seq). seq strictly increases per
// schedule, so events for the same instant dispatch in the order they
// were scheduled, whatever the clock read at each scheduling call.
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventSlot is one arena record. gen increments every time the slot is
// freed, invalidating any heap entries and Timers still pointing at it.
type eventSlot struct {
	fn   func()
	gen  uint32
	next int32 // free-list link, -1 terminates
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	events   []heapEntry // 4-ary min-heap on (at, seq)
	slots    []eventSlot
	freeHead int32 // head of the slot free list, -1 when empty
	live     int   // scheduled and not cancelled
	running  bool
	// hop is the running event's hop (see Hop); hopEnd is the last seq
	// scheduled before the first event of that hop ran, so a larger seq
	// at the same instant starts the next hop.
	hop    int
	hopEnd uint64
	// Live-process registry, insertion-ordered so Drain kills in a
	// deterministic sequence (map-order iteration would leak here).
	// procs maps each live process to its procList index; finish
	// swap-removes, which keeps the order a pure function of the run.
	procs    map[*Proc]int
	procList []*Proc
	tracer   *Tracer // nil unless attached with Tracer.Attach
	tracePID int

	// idleAt is the latest completion time of fire-and-forget work
	// (e.g. Pipe.Transfer with a nil callback). Instead of holding a
	// no-op event in the heap per transfer, RunUntilIdle advances the
	// clock here once the queue drains, preserving "the run ends when
	// the last byte has arrived" without per-transfer heap churn.
	idleAt Time

	// Executed counts dispatched events, for diagnostics and loop guards.
	Executed uint64
	// Wakes counts process resumes: the switches into a coroutine, its
	// start included. A diagnostic beside Executed; it moves no event.
	Wakes uint64
	// MaxEvents aborts the run (panic) if more than this many events are
	// dispatched; a guard against accidental event storms. Zero disables.
	MaxEvents uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]int), freeHead: -1, hop: betweenRuns}
}

// betweenRuns is the hop of code outside Run and RunUntilIdle, and of
// the events it schedules for the current instant: Run(until) has
// already dispatched every event at until, so such code runs after all
// of them.
const betweenRuns = 1 << 30

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in the model and panics.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	slot := e.freeHead
	if slot >= 0 {
		e.freeHead = e.slots[slot].next
	} else {
		e.slots = append(e.slots, eventSlot{})
		slot = int32(len(e.slots) - 1)
	}
	s := &e.slots[slot]
	s.fn = fn
	e.push(heapEntry{at: t, seq: e.seq, slot: slot, gen: s.gen})
	e.live++
	return Timer{eng: e, slot: slot, gen: s.gen}
}

// After schedules fn to run d after the current time. Negative d is
// treated as zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// freeSlot recycles a slot onto the free list. Bumping gen invalidates
// the heap entry (if still queued) and every Timer handle for it.
func (e *Engine) freeSlot(slot int32) {
	s := &e.slots[slot]
	s.fn = nil
	s.gen++
	s.next = e.freeHead
	e.freeHead = slot
	e.live--
}

// push inserts an entry, sifting up through 4-ary parents.
func (e *Engine) push(ent heapEntry) {
	h := append(e.events, ent)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ent.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
	e.events = h
}

// popMin removes and returns the minimum entry, sifting the last entry
// down through the up-to-four children of each node.
func (e *Engine) popMin() heapEntry {
	h := e.events
	min := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.events = h
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			if c+1 < n && h[c+1].less(h[m]) {
				m = c + 1
			}
			if c+2 < n && h[c+2].less(h[m]) {
				m = c + 2
			}
			if c+3 < n && h[c+3].less(h[m]) {
				m = c + 3
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}

// purge discards cancelled entries from the top of the heap so callers
// can trust events[0] to be a live event.
func (e *Engine) purge() {
	for len(e.events) > 0 {
		ent := e.events[0]
		if e.slots[ent.slot].gen == ent.gen {
			return
		}
		e.popMin()
	}
}

// Timer is a handle to a scheduled event, allowing cancellation. The
// zero Timer is valid: never pending, Stop reports false.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Stop cancels the pending event. It reports whether the event was still
// pending (and is now cancelled). The heap entry is dropped lazily when
// it reaches the top of the queue.
func (t Timer) Stop() bool {
	if t.eng == nil || t.eng.slots[t.slot].gen != t.gen {
		return false
	}
	t.eng.freeSlot(t.slot)
	return true
}

// Pending reports whether the event has not yet fired or been cancelled.
func (t Timer) Pending() bool {
	return t.eng != nil && t.eng.slots[t.slot].gen == t.gen
}

// step dispatches the earliest pending event. It reports false when the
// event queue is empty.
func (e *Engine) step() bool {
	for {
		if len(e.events) == 0 {
			return false
		}
		ent := e.popMin()
		s := &e.slots[ent.slot]
		if s.gen != ent.gen { // cancelled: drop and keep looking
			continue
		}
		switch {
		case ent.at > e.now:
			e.now = ent.at
			e.hop, e.hopEnd = 0, e.seq
		case ent.at < e.now:
			panic("sim: time went backwards")
		case ent.seq > e.hopEnd:
			e.hop++
			e.hopEnd = e.seq
		}
		e.Executed++
		if e.MaxEvents != 0 && e.Executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		fn := s.fn
		// Free before dispatch so fn can schedule into the recycled slot.
		e.freeSlot(ent.slot)
		fn()
		return true
	}
}

// Run dispatches events until the clock would pass `until` or no events
// remain. The clock is left at `until`.
func (e *Engine) Run(until Time) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.hopEnd = e.seq
	defer e.endRun()
	for {
		e.purge()
		if len(e.events) == 0 || e.events[0].at > until {
			break
		}
		e.step()
	}
	if until > e.now {
		e.now = until
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d time.Duration) { e.Run(e.now.Add(d)) }

// RunUntilIdle dispatches events until none remain, then advances the
// clock over any outstanding fire-and-forget completions (stretchIdle)
// so it ends at the instant the simulation truly quiesces.
func (e *Engine) RunUntilIdle() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.hopEnd = e.seq
	defer e.endRun()
	for e.step() {
	}
	if e.idleAt > e.now {
		e.now = e.idleAt
	}
}

// stretchIdle records that fire-and-forget work completes at t: the
// queue may drain earlier, but the simulation is not quiescent before
// t. Used by Pipe.Transfer instead of scheduling a no-op event.
func (e *Engine) stretchIdle(t Time) {
	if t > e.idleAt {
		e.idleAt = t
	}
}

// endRun closes a Run or RunUntilIdle call.
func (e *Engine) endRun() {
	e.running = false
	e.hop = betweenRuns
}

// Hop returns how many zero-delay hops separate the running event from
// its instant's first events: 0 for an event scheduled at an earlier
// instant, h+1 for one that an event at hop h scheduled for its own
// instant. Every event of one hop runs before any of the next, because
// seq orders same-instant events by when they were scheduled. Between
// Run calls it returns a value larger than any hop an event reaches.
func (e *Engine) Hop() int { return e.hop }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.live }

// Drain terminates every live process, synchronously and in a
// deterministic order: a parked process unwinds from its blocking call
// before Drain returns, and one whose start event never ran is freed
// without running its body. Call when a run is finished so process coroutines do not
// leak; after Drain the engine must not be used.
func (e *Engine) Drain() {
	procs := e.procList
	// Detach the registry first: an unwinding process that swallows
	// the kill and returns must not reshuffle the list being walked.
	e.procs = make(map[*Proc]int)
	e.procList = nil
	for _, p := range procs {
		p.stop()
	}
}
