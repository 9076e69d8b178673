package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30*Nanosecond, func() { order = append(order, 3) })
	e.After(10*Nanosecond, func() { order = append(order, 1) })
	e.After(20*Nanosecond, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != Time(30) {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(100), func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(10*Nanosecond, func() { fired++ })
	e.After(100*Nanosecond, func() { fired++ })
	e.Run(Time(50))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != Time(50) {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(Time(5), func() {})
	})
	e.RunUntilIdle()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			e.After(Nanosecond, rec)
		}
	}
	e.After(0, rec)
	e.RunUntilIdle()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != Time(4) {
		t.Fatalf("clock = %v, want 4", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10*Nanosecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report cancellation")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestTimerStopAmongOthers(t *testing.T) {
	e := NewEngine()
	var fired []int
	timers := make([]Timer, 5)
	for i := 0; i < 5; i++ {
		i := i
		timers[i] = e.After(time.Duration(i+1)*Nanosecond, func() { fired = append(fired, i) })
	}
	timers[2].Stop()
	e.RunUntilIdle()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var loop func()
	loop = func() { e.After(Nanosecond, loop) }
	e.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("MaxEvents guard did not trip")
		}
	}()
	e.RunUntilIdle()
}

// TestScheduleDispatchAllocFree guards the free-list design: once the
// slot arena and heap have grown to steady-state size, scheduling and
// dispatching events allocates nothing.
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the arena and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*Nanosecond, fn)
	}
	e.RunUntilIdle()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			e.After(time.Duration(i)*Nanosecond, fn)
		}
		e.RunUntilIdle()
	})
	if allocs > 0.5 {
		t.Fatalf("schedule+dispatch allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestTimerStaleAfterFire: a Timer held past its event's dispatch must
// report not-pending and refuse to Stop, even after its slot has been
// recycled for a newer event.
func TestTimerStaleAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.After(Nanosecond, func() { fired++ })
	e.RunUntilIdle()
	// Recycle the slot for a fresh event.
	tm2 := e.After(Nanosecond, func() { fired++ })
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer must report false")
	}
	if !tm2.Pending() {
		t.Fatal("recycled slot's new timer should be pending")
	}
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// TestRunBoundWithCancelledHead: a cancelled entry at the head of the
// heap must not let Run dispatch a live event past its bound.
func TestRunBoundWithCancelledHead(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10*Nanosecond, func() { t.Error("cancelled event fired") })
	e.After(100*Nanosecond, func() { fired = true })
	tm.Stop()
	e.Run(Time(50))
	if fired {
		t.Fatal("Run dispatched an event beyond its bound")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntilIdle()
	if !fired {
		t.Fatal("live event never fired")
	}
}

// TestPendingCountExcludesCancelled: Engine.Pending counts live events
// only, despite lazy heap deletion.
func TestPendingCountExcludesCancelled(t *testing.T) {
	e := NewEngine()
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, e.After(time.Duration(i+1)*Nanosecond, func() {}))
	}
	for i := 0; i < 4; i++ {
		tms[i].Stop()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

// Heap fuzz script opcodes. Each op byte is followed by its operands;
// a script that ends mid-op stops there.
const (
	opSchedule      = iota // [d_hi, d_lo]: At(now + d), d < 1024
	opScheduleChild        // [d, c]: At(now + d%64), whose callback does At(fire time + c%64)
	opStop                 // [k]: Stop timer n-1-k%n of the n scheduled so far (0 = newest)
	opRun                  // [u]: Run(now + u)
	numHeapOps
)

// heapFire is one dispatch: the event's schedule index and the clock.
type heapFire struct {
	id int
	at Time
}

// heapRef is the reference the heap is fuzzed against: events kept in
// schedule order and dispatched by a linear scan for the least at,
// first scheduled winning ties, i.e. a stable sort on
// (at, schedule order).
type heapRef struct {
	now     Time
	at      []Time
	child   []time.Duration // < 0: the event schedules nothing
	pending []int           // ids neither fired nor stopped, in schedule order
	fired   []heapFire
}

func (r *heapRef) schedule(at Time, child time.Duration) {
	r.pending = append(r.pending, len(r.at))
	r.at = append(r.at, at)
	r.child = append(r.child, child)
}

// stop cancels id, reporting whether it was still pending.
func (r *heapRef) stop(id int) bool {
	for i, p := range r.pending {
		if p == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// run dispatches like Engine.Run(until), or RunUntilIdle when idle.
func (r *heapRef) run(until Time, idle bool) {
	for len(r.pending) > 0 {
		best := 0
		for i, id := range r.pending {
			if r.at[id] < r.at[r.pending[best]] {
				best = i
			}
		}
		id := r.pending[best]
		if !idle && r.at[id] > until {
			break
		}
		r.pending = append(r.pending[:best], r.pending[best+1:]...)
		r.now = r.at[id]
		r.fired = append(r.fired, heapFire{id, r.now})
		if c := r.child[id]; c >= 0 {
			r.schedule(r.now.Add(c), -1)
		}
	}
	if !idle && until > r.now {
		r.now = until
	}
}

// heapScript encodes the schedule TestHeapOrderRandomized drew from
// seed 7: 2000 events at random instants in [0, 500), every fifth or
// so cancelled right after scheduling, then one run to idle.
func heapScript() []byte {
	g := NewRNG(7)
	var script []byte
	for i := 0; i < 2000; i++ {
		at := g.Intn(500)
		script = append(script, opSchedule, byte(at>>8), byte(at))
		if g.Intn(5) == 0 {
			script = append(script, opStop, 0)
		}
	}
	return script
}

// FuzzEngineHeap drives the engine with a byte-coded script and checks
// every dispatch, the clock and the pending count after each op
// against heapRef. Scripts interleave scheduling between runs,
// scheduling from inside callbacks after the clock has advanced,
// cancellation and bounded runs, so two events for the same instant
// can be scheduled at different clock values: the heap must still
// dispatch them in schedule order.
func FuzzEngineHeap(f *testing.F) {
	f.Add(heapScript())
	// Same-instant events scheduled at clocks 0, 5 and 7: A at 10, a
	// parent at 5 whose callback schedules B at 10, a run to 7, C at 10.
	f.Add([]byte{opSchedule, 0, 10, opScheduleChild, 5, 5, opRun, 7, opSchedule, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		// The reference is quadratic; 8 KiB holds the seed-7 schedule.
		if len(script) > 8<<10 {
			script = script[:8<<10]
		}
		e := NewEngine()
		ref := &heapRef{}
		var timers []Timer
		var fired []heapFire
		var schedule func(at Time, child time.Duration)
		schedule = func(at Time, child time.Duration) {
			id := len(timers)
			timers = append(timers, Timer{})
			timers[id] = e.At(at, func() {
				fired = append(fired, heapFire{id, e.Now()})
				if child >= 0 {
					schedule(e.Now().Add(child), -1)
				}
			})
		}
		checked := 0 // dispatches already compared
		check := func(op int) {
			t.Helper()
			if len(fired) != len(ref.fired) {
				t.Fatalf("op %d: dispatched %d events, want %d", op, len(fired), len(ref.fired))
			}
			for i := checked; i < len(fired); i++ {
				if fired[i] != ref.fired[i] {
					t.Fatalf("op %d: dispatch %d = %+v, want %+v", op, i, fired[i], ref.fired[i])
				}
			}
			checked = len(fired)
			if e.Now() != ref.now {
				t.Fatalf("op %d: now = %v, want %v", op, e.Now(), ref.now)
			}
			if e.Pending() != len(ref.pending) {
				t.Fatalf("op %d: Pending = %d, want %d", op, e.Pending(), len(ref.pending))
			}
		}
		operands := [numHeapOps]int{opSchedule: 2, opScheduleChild: 2, opStop: 1, opRun: 1}
		for op := 0; len(script) > 0; op++ {
			code := script[0] % numHeapOps
			if len(script) < 1+operands[code] {
				break
			}
			arg := script[1 : 1+operands[code]]
			script = script[1+operands[code]:]
			switch code {
			case opSchedule:
				at := e.Now() + Time((int(arg[0])<<8|int(arg[1]))%1024)
				schedule(at, -1)
				ref.schedule(at, -1)
			case opScheduleChild:
				at := e.Now() + Time(arg[0]%64)
				child := time.Duration(arg[1] % 64)
				schedule(at, child)
				ref.schedule(at, child)
			case opStop:
				if len(timers) == 0 {
					continue
				}
				i := len(timers) - 1 - int(arg[0])%len(timers)
				if got, want := timers[i].Stop(), ref.stop(i); got != want {
					t.Fatalf("op %d: Stop(event %d) = %v, want %v", op, i, got, want)
				}
			case opRun:
				until := e.Now() + Time(arg[0])
				e.Run(until)
				ref.run(until, false)
			}
			check(op)
		}
		e.RunUntilIdle()
		ref.run(0, true)
		check(-1)
	})
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(100)
	if tm.Add(50*Nanosecond) != Time(150) {
		t.Error("Add failed")
	}
	if tm.Add(-200*Nanosecond) != tm {
		t.Error("negative Add should clamp to t")
	}
	if tm.Sub(Time(40)) != 60*Nanosecond {
		t.Error("Sub failed")
	}
	if Time(2_500_000_000).Seconds() != 2.5 {
		t.Error("Seconds failed")
	}
}

func TestTimeAddMonotonic(t *testing.T) {
	// Property: Add never moves time backwards for non-negative d.
	f := func(base int64, d int64) bool {
		if base < 0 {
			base = -base
		}
		if d < 0 {
			d = -d
		}
		tm := Time(base)
		return tm.Add(time.Duration(d)) >= tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		g := NewRNG(42)
		var out []int
		for i := 0; i < 100; i++ {
			i := i
			e.After(time.Duration(g.Intn(200))*Nanosecond, func() { out = append(out, i) })
		}
		e.RunUntilIdle()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTimerSlotReclaim: under heavy arm/cancel churn every event slot
// returns to the free list once the engine runs idle — stopped timers
// are lazily reclaimed when their heap entry surfaces, fired ones
// immediately, and neither path leaks arena slots.
func TestTimerSlotReclaim(t *testing.T) {
	e := NewEngine()
	fired := 0
	for round := 0; round < 50; round++ {
		timers := make([]Timer, 0, 40)
		for i := 0; i < 40; i++ {
			timers = append(timers, e.After(time.Duration(i+1)*Microsecond, func() { fired++ }))
		}
		// Cancel every other timer, some twice (double Stop must be a
		// no-op, not a double free).
		for i := 0; i < len(timers); i += 2 {
			if !timers[i].Stop() {
				t.Fatalf("round %d: live timer %d refused to stop", round, i)
			}
			if timers[i].Stop() {
				t.Fatal("second Stop on a dead timer reported success")
			}
		}
		e.RunUntilIdle()
	}
	if fired != 50*20 {
		t.Fatalf("%d timers fired, want %d", fired, 50*20)
	}
	free := 0
	for s := e.freeHead; s >= 0; s = e.slots[s].next {
		free++
	}
	if total := len(e.slots); free != total {
		t.Fatalf("slot leak: %d of %d arena slots free after idle", free, total)
	}
}

func TestHopCountsZeroDelayHopsWithinAnInstant(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(name string) { got = append(got, fmt.Sprintf("%s@%d:%d", name, e.Now(), e.Hop())) }
	e.At(10, func() {
		rec("a")
		e.After(0, func() {
			rec("a1")
			e.After(0, func() { rec("a2") })
		})
		e.After(5, func() { rec("c") })
	})
	e.At(10, func() {
		rec("b")
		e.After(0, func() { rec("b1") })
	})
	e.Run(20)
	rec("between")
	// Code between Run calls, and what it schedules for the current
	// instant, runs after every event there.
	e.After(0, func() {
		rec("d")
		e.After(0, func() { rec("d1") })
	})
	e.At(25, func() { rec("f") })
	e.Run(30)
	after := betweenRuns
	want := []string{
		"a@10:0", "b@10:0", "a1@10:1", "b1@10:1", "a2@10:2", "c@15:0",
		fmt.Sprintf("between@20:%d", after),
		fmt.Sprintf("d@20:%d", after), fmt.Sprintf("d1@20:%d", after+1), "f@25:0",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("hops:\n got %v\nwant %v", got, want)
	}
}
