// Conservative parallel simulation: a Group gangs engines into shards
// that run concurrently on their own goroutines, null-message style
// (Chandy-Misra-Bryant). The topology being simulated provides the
// lookahead: every interaction that crosses a shard boundary rides a
// physical link with nonzero latency (an Ethernet wire's propagation
// delay, the netstack's ACK/connect control-plane delay), so a shard
// may always advance to
//
//	min over incoming links of (sender horizon + link floor)
//
// without risk of an event arriving in its past. Each shard publishes
// a monotone clock — a promise that it will not dispatch (and hence
// not send) anything earlier — and cross-shard events travel through
// per-engine mailboxes as (at, sub, seq)-keyed posts that the receiver
// merges into its heap, reproducing the serial engine's dispatch order
// (see heapEntry.less).
//
// Wire links additionally publish a dynamic horizon: the sending
// pipe's next-free time. A saturated wire serializes far ahead of the
// sender's clock, so its receiver gets lookahead on the order of the
// queueing backlog instead of the 300 ns propagation floor — this is
// what lets throughput experiments scale, while idle wires degrade to
// latency-floor lockstep.
//
// Determinism: a shard's local schedule order is exactly the serial
// order (same counter, same clock), and cross-shard posts carry the
// sender's scheduling key, so any two events whose scheduling times
// differ dispatch in serial order. The only residual ambiguity is two
// events scheduled at the same instant *by different shards* for the
// same instant — ordered here by shard index — where the serial
// engine would have used global call order. The experiment-level
// byte-identity gate (scripts/check.sh) demonstrates the distinction
// is unobservable for the workloads this repo runs.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxShardSeq bounds the per-shard event counter: seq keys compose as
// shard<<56 | counter.
const maxShardSeq = uint64(1)<<56 - 1

// atomicTime is a Time published with sequentially consistent loads and
// stores (shard clocks and pipe horizons).
type atomicTime struct{ v atomic.Int64 }

func (a *atomicTime) load() Time   { return Time(a.v.Load()) }
func (a *atomicTime) store(t Time) { a.v.Store(int64(t)) }

// xpost is one cross-shard event: the sender's full ordering key plus
// the callback to run on the receiving engine.
type xpost struct {
	at  Time
	sub Time
	seq uint64
	fn  func()
}

// mailbox is an engine's inbox for cross-shard posts. Senders append
// under the mutex during their dispatches; the receiving shard swaps
// the batch out and merges it into its heap. n mirrors len(posts) so
// the receiver can skip the lock entirely on the (common) empty check.
type mailbox struct {
	mu    sync.Mutex
	n     atomic.Int32
	posts []xpost
	spare []xpost
}

func (mb *mailbox) put(p xpost) {
	mb.mu.Lock()
	mb.posts = append(mb.posts, p)
	mb.n.Store(int32(len(mb.posts)))
	mb.mu.Unlock()
}

// drainInto merges every pending post into the engine's heap.
func (e *Engine) drainInbox() {
	mb := &e.inbox
	if mb.n.Load() == 0 {
		return
	}
	mb.mu.Lock()
	batch := mb.posts
	mb.posts = mb.spare[:0]
	mb.n.Store(0)
	mb.mu.Unlock()
	for i := range batch {
		p := &batch[i]
		if p.at < e.now {
			panic(fmt.Sprintf("sim: cross-shard post for %v arrived in shard %d's past (now %v) — link floor too small", p.at, e.shard, e.now))
		}
		e.insert(p.at, p.sub, p.seq, p.fn)
		p.fn = nil
	}
	mb.spare = batch[:0]
}

// link is one incoming cross-shard channel: events from src arrive no
// earlier than max(src clock, horizon) + floor.
type link struct {
	src     *Engine
	floor   Time
	horizon *atomicTime // optional dynamic bound (a pipe's next-free time)
}

// Group is a set of engines running as parallel shards. Build the
// group immediately after constructing the engines — before scheduling
// anything on them — so every event carries its shard's composed
// sequence key, then register the cross-shard links and drive the
// whole group with Run.
type Group struct {
	engines []*Engine
	in      [][]link // incoming links per shard
	running bool
}

// NewGroup gangs engines into a shard group. Engines must be fresh
// (nothing scheduled yet) and belong to at most one group.
func NewGroup(engines ...*Engine) *Group {
	if len(engines) < 2 {
		panic("sim: a shard group needs at least two engines")
	}
	g := &Group{engines: engines, in: make([][]link, len(engines))}
	for i, e := range engines {
		if e.group != nil {
			panic("sim: engine already belongs to a shard group")
		}
		if e.seq != 0 || len(e.events) != 0 {
			panic("sim: engine joined a shard group after scheduling events")
		}
		e.group = g
		e.shard = i
		e.seqBase = uint64(i) << 56
	}
	return g
}

// Engines returns the group's engines in shard order.
func (g *Group) Engines() []*Engine { return g.engines }

// Link declares that src sends cross-shard events to dst with at least
// `floor` of latency: dst may safely advance to src's published clock
// plus the floor. horizon, when non-nil, is an additional dynamic
// lower bound on arrival times (a wire pipe's next-free time), which
// extends the lookahead far past the floor while the link is
// backlogged. Every Post path from src to dst must be covered by some
// registered link, and no post may undercut the floors.
func (g *Group) Link(src, dst *Engine, floor time.Duration, horizon *atomicTime) {
	if src.group != g || dst.group != g {
		panic("sim: Link between engines outside this group")
	}
	if src == dst {
		return
	}
	if floor <= 0 {
		panic("sim: cross-shard link needs a positive latency floor")
	}
	g.in[dst.shard] = append(g.in[dst.shard], link{src: src, floor: Time(floor), horizon: horizon})
}

// Run dispatches events on all shards concurrently until every clock
// would pass `until`, then synchronizes: mailboxes are drained, clocks
// equalized at `until`, and shard-sync hooks flushed, so the group is
// indistinguishable from a serial engine that just finished Run(until).
func (g *Group) Run(until Time) {
	if g.running {
		panic("sim: Group.Run called reentrantly")
	}
	g.running = true
	defer func() { g.running = false }()
	for _, e := range g.engines {
		if e.running {
			panic("sim: Run called reentrantly")
		}
		if e.seq > maxShardSeq {
			panic("sim: shard sequence counter overflow")
		}
		e.running = true
		e.stopped = false
		e.clock.store(e.now)
	}
	var wg sync.WaitGroup
	for _, e := range g.engines {
		wg.Add(1)
		// Per-iteration loop variable (Go 1.22): capture directly.
		go func() {
			defer wg.Done()
			g.runShard(e, until)
		}()
	}
	wg.Wait()
	for _, e := range g.engines {
		// Posts sent by peers' final dispatches may still sit in the
		// inbox (necessarily for delivery past `until`): merge them into
		// the heap so Pending and the next window see them.
		e.drainInbox()
		e.purge()
		if !e.stopped && until > e.now {
			e.now = until
		}
		e.clock.store(e.now)
		e.running = false
	}
	for _, e := range g.engines {
		for _, h := range e.syncHooks {
			h()
		}
	}
}

// RunFor advances the whole group by d from its current time (all
// shards share a clock value at every window boundary).
func (g *Group) RunFor(d time.Duration) { g.Run(g.engines[0].now.Add(d)) }

// Now returns the group's time (well-defined between runs, when all
// shard clocks are equalized).
func (g *Group) Now() Time { return g.engines[0].now }

// Executed sums dispatched events over all shards.
func (g *Group) Executed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Executed
	}
	return n
}

// Pending sums queued events over all shards.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Drain terminates every shard's live processes (see Engine.Drain).
func (g *Group) Drain() {
	for _, e := range g.engines {
		e.Drain()
	}
}

// safeHorizon computes how far shard e may advance: the minimum over
// incoming links of the sender's promised progress plus the link
// latency floor. Must be computed from clock/horizon values loaded
// BEFORE the caller's inbox drain — any post not yet visible at drain
// time was sent at or after those loaded clocks, so its arrival is
// bounded below by this value.
func (g *Group) safeHorizon(e *Engine) Time {
	s := Time(math.MaxInt64)
	for _, l := range g.in[e.shard] {
		b := l.src.clock.load()
		if l.horizon != nil {
			if h := l.horizon.load(); h > b {
				b = h
			}
		}
		b += l.floor
		if b < s {
			s = b
		}
	}
	return s
}

// runShard is one shard's event loop for a single window. The ordering
// discipline that makes it safe: load peer horizons first, then drain
// the inbox, then dispatch strictly below the loaded horizon. Any post
// that was enqueued before a peer's clock reached the loaded value is
// visible to the drain (the mailbox mutex orders it); any post
// enqueued after it departs from a dispatch at or past that clock, so
// it arrives at or past the horizon.
func (g *Group) runShard(e *Engine, until Time) {
	for !e.stopped {
		s := g.safeHorizon(e)
		e.drainInbox()
		e.purge()
		t := Time(math.MaxInt64)
		if len(e.events) > 0 {
			t = e.events[0].at
		}
		// Publish our own promise before dispatching anything at t.
		c := t
		if s < c {
			c = s
		}
		if c > e.clock.load() {
			e.clock.store(c)
		}
		if t <= until && t < s {
			// Dispatch the batch below the horizon, keeping the clock
			// fresh as local time advances so peers can make progress
			// without waiting for this batch to finish.
			for {
				e.step()
				if e.stopped {
					break
				}
				e.purge()
				if len(e.events) == 0 {
					break
				}
				nt := e.events[0].at
				if nt > until || nt >= s {
					break
				}
				if nt > t {
					t = nt
					e.clock.store(t)
				}
			}
			continue
		}
		if t > until && s > until {
			// Nothing of ours left in the window and nothing can arrive
			// inside it: promise the whole window and leave. The final
			// barrier in Run picks up any posts for later windows.
			e.clock.store(until + 1)
			return
		}
		// Blocked on a peer: yield and re-read its horizon. Idle gaps
		// creep forward one link floor per round trip.
		runtime.Gosched()
	}
	e.clock.store(until + 1)
}
