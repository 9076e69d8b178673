package kernel

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ioctopus/internal/sim"
)

// The core dispatcher is an event-driven state machine that must keep
// the event schedule of the blocking loop it replaced, event for event
// (DESIGN.md §2, "Execution model"): these tests pin that schedule.

// idleKernel returns a kernel whose start events have all run, so
// every core is idle and the engine's queue is empty.
func idleKernel(t *testing.T) (*sim.Engine, *Kernel) {
	t.Helper()
	e, k := newKernel(t)
	if e.Pending() != k.NumCores() {
		t.Fatalf("pending = %d after New, want one start event per core (%d)", e.Pending(), k.NumCores())
	}
	e.RunUntilIdle()
	if e.Executed != uint64(k.NumCores()) {
		t.Fatalf("executed = %d after boot, want %d start events", e.Executed, k.NumCores())
	}
	return e, k
}

func TestNewStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := newKernel(t)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after kernel.New, want at most %d", n, before)
	}
	e.RunUntilIdle()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after boot, want at most %d", n, before)
	}
}

func TestIdleCoreWakesThroughOneZeroDelayEvent(t *testing.T) {
	e, k := idleKernel(t)
	const at = sim.Time(5 * time.Microsecond)
	const d = 2 * time.Microsecond
	var submitN, runN, doneN uint64
	var runAt, doneAt sim.Time
	e.At(at, func() {
		submitN = e.Executed
		k.Core(3).Submit(func() time.Duration {
			runN, runAt = e.Executed, e.Now()
			return d
		}, func() {
			doneN, doneAt = e.Executed, e.Now()
		})
	})
	e.RunUntilIdle()
	if runN != submitN+1 || runAt != at {
		t.Fatalf("item ran in event %d at %v, want the wake event %d at %v", runN, runAt, submitN+1, at)
	}
	// Completion is event submitN+2; done gets an event of its own.
	if doneN != submitN+3 || doneAt != at.Add(d) {
		t.Fatalf("done fired in event %d at %v, want event %d at %v", doneN, doneAt, submitN+3, at.Add(d))
	}
	if e.Executed != submitN+3 {
		t.Fatalf("executed = %d, want %d: submit, wake, completion, done", e.Executed, submitN+3)
	}
}

func TestDoneFiresInItsOwnEventAfterNextItemStarts(t *testing.T) {
	e, k := idleKernel(t)
	c := k.Core(1)
	var log []string
	var aDoneN, bRunN uint64
	e.At(e.Now(), func() {
		c.Submit(func() time.Duration {
			log = append(log, "run a")
			return time.Microsecond
		}, func() {
			aDoneN = e.Executed
			log = append(log, "done a")
		})
		c.Submit(func() time.Duration {
			bRunN = e.Executed
			log = append(log, "run b")
			return time.Microsecond
		}, nil)
	})
	e.RunUntilIdle()
	want := []string{"run a", "run b", "done a"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	// b starts inside a's completion event; a's done is the next event.
	if aDoneN != bRunN+1 {
		t.Fatalf("done a in event %d, b started in event %d: want done one event later", aDoneN, bRunN)
	}
}

func TestWorkQueuedBeforeStartRunsAtStart(t *testing.T) {
	e, k := newKernel(t)
	var runN uint64
	runAt := sim.Time(-1)
	k.Core(0).Submit(func() time.Duration {
		runN, runAt = e.Executed, e.Now()
		return time.Microsecond
	}, nil)
	if e.Pending() != k.NumCores() {
		t.Fatalf("pending = %d, want only the %d start events: no wake before start", e.Pending(), k.NumCores())
	}
	e.RunUntilIdle()
	// Core 0's start event is the first event of the run.
	if runN != 1 || runAt != 0 {
		t.Fatalf("early item ran in event %d at %v, want core 0's start event (1) at 0", runN, runAt)
	}
	if want := uint64(k.NumCores() + 1); e.Executed != want {
		t.Fatalf("executed = %d, want %d start events + 1 completion", e.Executed, want)
	}
}

func TestIRQPollerAndThreadItemsKeepFIFOOrder(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	const at = sim.Time(10 * time.Microsecond)
	var log []string
	line := c.NewIRQLine(func() time.Duration {
		log = append(log, "irq")
		return time.Microsecond
	})
	polls := 0
	e.At(at, func() {
		line.Raise()
		var p *Poller
		p = c.StartPoller(func() (time.Duration, bool) {
			polls++
			log = append(log, "poll")
			if polls == 2 {
				p.Stop()
			}
			return time.Microsecond, true
		})
		c.Submit(func() time.Duration {
			log = append(log, "fixed")
			return time.Microsecond
		}, nil)
	})
	// The thread's wakeup at `at` was scheduled after the event above,
	// so its Exec queues behind the IRQ, the first poll and the item.
	k.Spawn("t", 0, func(th *Thread) {
		th.Sleep(time.Duration(at))
		th.ExecFn(func() time.Duration {
			log = append(log, "thread")
			return time.Microsecond
		})
	})
	e.RunUntilIdle()
	// The first poll's resubmission lands behind the thread's Exec.
	want := []string{"irq", "poll", "fixed", "thread", "poll"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	e.Drain()
}

func TestExecutedDeltasPerItem(t *testing.T) {
	cases := []struct {
		name   string
		submit func(e *sim.Engine, k *Kernel)
		want   uint64
		wakes  uint64 // process resumes
	}{
		// wake + completion
		{"fixed item", func(e *sim.Engine, k *Kernel) { k.Core(2).SubmitFixed(time.Microsecond, nil) }, 2, 0},
		// wake + completion + done
		{"fixed item with done", func(e *sim.Engine, k *Kernel) { k.Core(2).SubmitFixed(time.Microsecond, func() {}) }, 3, 0},
		// a zero-length item still completes in an event of its own
		{"zero-length item", func(e *sim.Engine, k *Kernel) { k.Core(2).SubmitFixed(0, func() {}) }, 3, 0},
		{"irq line", func(e *sim.Engine, k *Kernel) {
			k.Core(2).NewIRQLine(func() time.Duration { return time.Microsecond }).Raise()
		}, 2, 0},
		{"stall", func(e *sim.Engine, k *Kernel) { k.Core(2).Stall(time.Microsecond) }, 2, 0},
		// one wake, then back to back: completion + done per item
		{"two queued items", func(e *sim.Engine, k *Kernel) {
			k.Core(2).SubmitFixed(time.Microsecond, func() {})
			k.Core(2).SubmitFixed(time.Microsecond, func() {})
		}, 5, 0},
		// three events per iteration that finds work: wake, completion,
		// resubmitting done
		{"poller, four iterations", func(e *sim.Engine, k *Kernel) {
			n := 0
			var p *Poller
			p = k.Core(2).StartPoller(func() (time.Duration, bool) {
				if n++; n == 4 {
					p.Stop()
				}
				return time.Microsecond, true
			})
		}, 12, 0},
		// an idle loop's first iteration is a wake with no completion;
		// a Stop n iterations later costs its event, the completion it
		// restores and that completion's done, whatever n is
		{"idle poller, four iterations", idlePoller(4), 1 + 3, 0},
		{"idle poller, 4000 iterations", idlePoller(4000), 1 + 3, 0},
		// the thread's start and its wake from s, then wake + completion
		// + resume per Exec
		{"thread, two Execs", func(e *sim.Engine, k *Kernel) {
			s := sim.NewSignal(e)
			k.Spawn("t", 2, func(th *Thread) {
				th.Wait(s)
				th.Exec(time.Microsecond)
				th.Exec(time.Microsecond)
			})
			e.RunUntilIdle() // the thread starts and parks on s
			s.Broadcast()
		}, 1 + 1 + 3 + 3, 1 + 3},
		// the same two items chained with Submit: the second is queued
		// from the first's done event, where the thread resumed above,
		// so the schedule is the same and only the last step wakes it
		{"thread, two chained Submits", func(e *sim.Engine, k *Kernel) {
			s := sim.NewSignal(e)
			k.Spawn("t", 2, func(th *Thread) {
				th.Wait(s)
				us := func() time.Duration { return time.Microsecond }
				th.Submit(us, func() { th.Submit(us, th.WakeFunc()) })
				th.Park()
			})
			e.RunUntilIdle()
			s.Broadcast()
		}, 1 + 1 + 3 + 3, 1 + 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, k := idleKernel(t)
			base := e.Executed
			tc.submit(e, k)
			e.RunUntilIdle()
			if got := e.Executed - base; got != tc.want {
				t.Fatalf("executed %d events, want %d", got, tc.want)
			}
			if e.Wakes != tc.wakes {
				t.Fatalf("woke processes %d times, want %d", e.Wakes, tc.wakes)
			}
			e.Drain()
		})
	}
}

// idlePoller starts a loop whose every iteration finds nothing and
// stops it after n iterations of 1µs.
func idlePoller(n int) func(e *sim.Engine, k *Kernel) {
	return func(e *sim.Engine, k *Kernel) {
		p := k.Core(2).StartPoller(func() (time.Duration, bool) { return time.Microsecond, false })
		e.At(e.Now().Add(time.Duration(n)*time.Microsecond), func() {
			if got := p.Iterations(); got != uint64(n) {
				panic(fmt.Sprintf("iterations = %d at the stop, want %d", got, n))
			}
			p.Stop()
		})
	}
}

func TestIdlePollerLedgerCountsIterationsAndBusyTime(t *testing.T) {
	e, k := idleKernel(t)
	c := k.Core(4)
	p := c.StartPoller(func() (time.Duration, bool) { return 200 * time.Nanosecond, false })
	base := e.Executed
	e.Run(sim.Time(time.Millisecond))
	// Between Run calls the iteration starting at the run's end counts:
	// Run(until) dispatches the events at until.
	if got := p.Iterations(); got != 5001 {
		t.Fatalf("iterations = %d after 1ms, want 5001 (one every 200ns from 0 through 1ms)", got)
	}
	if got := p.DormantIterations(); got != 5000 {
		t.Fatalf("dormant iterations = %d, want 5000: all but the first", got)
	}
	if got := c.BusyTime(); got != 5001*200*time.Nanosecond {
		t.Fatalf("busy = %v, want %v", got, 5001*200*time.Nanosecond)
	}
	if got := e.Executed - base; got != 1 {
		t.Fatalf("executed %d events, want 1: the wake that ran the first iteration", got)
	}
	before := c.BusyTime()
	e.Run(sim.Time(2 * time.Millisecond))
	if got := c.BusyTime() - before; got != time.Millisecond {
		t.Fatalf("busy grew %v in 1ms more, want 1ms", got)
	}
	e.Drain()
}

func TestSecondPollerOnACoreKeepsBothLoopsAwake(t *testing.T) {
	e, k := idleKernel(t)
	c := k.Core(4)
	empty := func() (time.Duration, bool) { return 200 * time.Nanosecond, false }
	p1 := c.StartPoller(empty)
	e.Run(sim.Time(time.Microsecond))
	base := e.Executed
	p2 := c.StartPoller(empty)
	e.Run(sim.Time(11 * time.Microsecond))
	// The loops take turns, so neither keeps a ledger: they alternate
	// event by event, 200ns at a time. An iteration costs two events,
	// the completion in which the other loop's iteration starts and the
	// done that requeues the loop.
	if n1, n2 := p1.Iterations(), p2.Iterations(); n1 != 31 || n2 != 25 {
		t.Fatalf("iterations = %d, %d, want 31 (6 before the second loop) and 25", n1, n2)
	}
	if got, want := e.Executed-base, uint64(2*50); got != want {
		t.Fatalf("executed %d events, want %d", got, want)
	}
	if got := p1.DormantIterations() + p2.DormantIterations(); got != 5 {
		t.Fatalf("dormant iterations = %d, want the first loop's 5 before the second started", got)
	}
	e.Drain()
}
