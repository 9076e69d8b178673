package kernel

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"ioctopus/internal/sim"
)

// The busy-poll loop's observable behaviour, pinned: which iteration
// picks up each completion, and the loop's counters at every read. The
// digest below was recorded from the loop before it kept a dormancy
// ledger, when every iteration, empty or not, ran as events; a change
// to the poller that moves it has changed simulated results, and the
// fix belongs in the poller, not in the digest.
const pollLoopDigest = "6abd1d12d5e8e2bd7bcc8a625f54d6d642f5f8d13570631df2b8ceaca5287b15"

// pollCost is the pinned loop's empty-iteration cost. Every duration
// in the test (work, wedges, submitted items) is a multiple of it, so
// every iteration starts on the pollCost grid and a grid instant is an
// iteration boundary unless a longer item spans it.
const pollCost = 200 * time.Nanosecond

// fakeRing is a completion ring polled by one loop: arrivals append
// ids, each iteration drains what has arrived.
type fakeRing struct {
	e       *sim.Engine
	c       *Core
	p       *Poller
	log     *strings.Builder
	pending []int

	// polls and empty count the iterations that ran the body and those
	// among them that found nothing.
	polls, empty uint64
}

// poll is the loop body: pollCost for the tail check, plus pollCost
// per completion taken.
func (r *fakeRing) poll() (time.Duration, bool) {
	r.polls++
	if len(r.pending) == 0 {
		r.empty++
		return pollCost, false
	}
	for _, id := range r.pending {
		fmt.Fprintf(r.log, "pick %d t=%d it=%d\n", id, r.e.Now(), r.p.Iterations())
	}
	d := pollCost * time.Duration(1+len(r.pending))
	r.pending = r.pending[:0]
	return d, true
}

// deliver makes completions visible to the loop.
func (r *fakeRing) deliver(ids ...int) {
	r.pending = append(r.pending, ids...)
	r.p.Wake()
}

// counts reads the loop's polls and empty polls, the ledger's included.
func (r *fakeRing) counts() (polls, empty uint64) {
	n := r.p.DormantIterations()
	return r.polls + n, r.empty + n
}

// read records the loop's counters and the core's busy time.
func (r *fakeRing) read(label string) {
	polls, empty := r.counts()
	fmt.Fprintf(r.log, "read %s t=%d it=%d polls=%d empty=%d busy=%d\n",
		label, r.e.Now(), r.p.Iterations(), polls, empty, r.c.BusyTime())
}

// hops runs fn at t, created there by n zero-delay hops from an event
// scheduled now.
func hops(e *sim.Engine, t sim.Time, n int, fn func()) {
	var chain func(int) func()
	chain = func(left int) func() {
		if left == 0 {
			return fn
		}
		return func() { e.After(0, chain(left-1)) }
	}
	e.At(t, chain(n))
}

// runPinnedPollLoop drives one loop over a fake ring with seeded random
// arrivals, reads, submissions and wedges, and returns the log.
func runPinnedPollLoop(t *testing.T, seed int64) string {
	e, k := idleKernel(t)
	defer e.Drain()
	rng := sim.NewRNG(seed)
	var log strings.Builder
	r := &fakeRing{e: e, c: k.Core(5), log: &log}
	r.p = r.c.StartPoller(r.poll)

	const (
		grid    = 2000 // run length in pollCost steps
		tick    = 50   // watchdog-style tick period in steps
		stopAt  = 1900 // the loop stops here
		arrived = 90
		relays  = 40
	)
	// at draws an instant: a grid point, which is an iteration boundary
	// unless a longer iteration spans it, or a point inside a step.
	at := func(lo int) sim.Time {
		ts := sim.Time(lo+rng.Intn(grid-lo)) * sim.Time(pollCost)
		if rng.Bernoulli(0.3) {
			ts += sim.Time(1 + rng.Intn(int(pollCost)-1))
		}
		return ts
	}

	// A self-rescheduling tick, like the driver watchdog's, reads the
	// counters every tick steps.
	var tickFn func()
	tickFn = func() {
		r.read("tick")
		e.After(tick*pollCost, tickFn)
	}
	e.After(tick*pollCost, tickFn)

	for id := 0; id < arrived; id++ {
		ts := at(1)
		if id%15 == 0 {
			// Land exactly on a tick instant.
			ts = sim.Time(tick*(1+rng.Intn(grid/tick-1))) * sim.Time(pollCost)
		}
		ids := []int{id}
		if rng.Bernoulli(0.2) {
			id++
			ids = append(ids, id)
		}
		n := rng.Intn(3)
		hops(e, ts, n, func() {
			fmt.Fprintf(&log, "arrive %v t=%d hops=%d\n", ids, e.Now(), n)
			r.deliver(ids...)
		})
	}
	for i := 0; i < 60; i++ {
		label := fmt.Sprintf("ev%d", i)
		hops(e, at(0), rng.Intn(3), func() { r.read(label) })
	}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("s%d", i)
		d := pollCost * time.Duration(1+rng.Intn(3))
		hops(e, at(1), rng.Intn(3), func() {
			r.c.Submit(func() time.Duration {
				fmt.Fprintf(&log, "run %s t=%d\n", name, e.Now())
				return d
			}, func() {
				fmt.Fprintf(&log, "done %s t=%d\n", name, e.Now())
			})
		})
	}
	for i := 0; i < 6; i++ {
		d := pollCost * time.Duration(1+rng.Intn(30))
		hops(e, at(1), rng.Intn(3), func() {
			fmt.Fprintf(&log, "wedge %d t=%d\n", d, e.Now())
			r.p.Wedge(d)
		})
	}
	// Relays schedule, while the run is under way, an arrival or a read
	// for the next grid instant: an event created between an
	// iteration's start and its end, for that end.
	for i := 0; i < relays; i++ {
		id := 1000 + i
		arrive := rng.Bernoulli(0.5)
		e.At(at(1), func() {
			next := (e.Now()/sim.Time(pollCost) + 1) * sim.Time(pollCost)
			e.At(next, func() {
				if arrive {
					fmt.Fprintf(&log, "arrive [%d] t=%d relayed\n", id, e.Now())
					r.deliver(id)
					return
				}
				r.read(fmt.Sprintf("relay%d", id))
			})
		})
	}
	hops(e, sim.Time(stopAt)*sim.Time(pollCost), rng.Intn(3), func() {
		r.read("stop")
		r.p.Stop()
	})

	// Run in chunks, reading between Run calls at grid points and
	// inside steps.
	ends := make([]sim.Time, 0, 40)
	for i := 0; i < cap(ends)-1; i++ {
		ends = append(ends, at(0))
	}
	ends = append(ends, sim.Time(grid)*sim.Time(pollCost))
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for _, end := range ends {
		e.Run(end)
		r.read("run")
	}

	polls, _ := r.counts()
	if it := r.p.Iterations(); polls != it {
		t.Fatalf("seed %d: polls = %d, iterations = %d: every non-wedged iteration is one poll", seed, polls, it)
	}
	return log.String()
}

func TestPollLoopPinned(t *testing.T) {
	h := sha256.New()
	for seed := int64(1); seed <= 4; seed++ {
		out := runPinnedPollLoop(t, seed)
		if !strings.Contains(out, "pick ") {
			t.Fatalf("seed %d: the loop picked up no arrival", seed)
		}
		h.Write([]byte(out))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pollLoopDigest {
		t.Fatalf("poll loop digest = %s, want %s", got, pollLoopDigest)
	}
}
