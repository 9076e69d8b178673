package sim

import (
	"reflect"
	"runtime"
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakeups []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Nanosecond)
			wakeups = append(wakeups, p.eng.Now())
		}
	})
	e.RunUntilIdle()
	want := []Time{10, 20, 30}
	if len(wakeups) != 3 {
		t.Fatalf("wakeups = %v", wakeups)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("a", func(p *Proc) {
		log = append(log, "a0")
		p.Sleep(10 * Nanosecond)
		log = append(log, "a1")
		p.Sleep(20 * Nanosecond)
		log = append(log, "a2")
	})
	e.Go("b", func(p *Proc) {
		log = append(log, "b0")
		p.Sleep(15 * Nanosecond)
		log = append(log, "b1")
	})
	e.RunUntilIdle()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		if len(s.waiters) != 3 {
			t.Errorf("waiters = %d, want 3", len(s.waiters))
		}
		s.Broadcast()
	})
	e.RunUntilIdle()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

// TestSignalNotify: a Notify callback and a Wait are the same kind of
// waiter. Each fires once, as its own zero-delay event, in the order
// registered; only the process's resume counts as a wake.
func TestSignalNotify(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var log []string
	s.Notify(func() { log = append(log, "first") })
	e.Go("w", func(p *Proc) {
		s.Wait(p)
		log = append(log, "proc")
	})
	e.RunUntilIdle() // the process starts and waits behind the callback
	s.Notify(func() { log = append(log, "last") })
	if e.Wakes != 1 {
		t.Fatalf("wakes = %d after the start, want 1", e.Wakes)
	}
	base := e.Executed
	e.At(e.Now().Add(Microsecond), s.Broadcast)
	e.RunUntilIdle()
	if want := []string{"first", "proc", "last"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if got := e.Executed - base; got != 1+3 {
		t.Fatalf("executed %d events, want the broadcast and one per waiter", got)
	}
	if e.Wakes != 2 {
		t.Fatalf("wakes = %d, want 2: the start and the resume", e.Wakes)
	}
	s.Broadcast() // one-shot: nothing is registered any more
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after a broadcast with no waiters", e.Pending())
	}
}

func TestDrainKillsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	s := NewSignal(e)
	unwound, reached := false, false
	e.Go("stuck", func(p *Proc) {
		defer func() { unwound = true }()
		s.Wait(p) // never broadcast
		reached = true
	})
	e.Run(Time(1000))
	if len(s.waiters) != 1 || unwound {
		t.Fatalf("waiters = %d, unwound = %v: process should be parked in Wait", len(s.waiters), unwound)
	}
	e.Drain()
	if !unwound {
		t.Fatal("Drain returned before the parked process unwound")
	}
	if reached {
		t.Fatal("killed process continued past Wait")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after Drain, want at most %d", n, before)
	}
}

func TestQueuePutGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			q.ForcePut(i)
		}
	})
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.RunUntilIdle()
	if len(got) != 5 {
		t.Fatalf("got = %v", got)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue should fail")
	}
	q.ForcePut("a")
	q.ForcePut("b")
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	if v, _ := q.TryGet(); v != "a" {
		t.Fatalf("got %q, want a", v)
	}
	if v, ok := q.TryGet(); !ok || v != "b" || q.Len() != 0 {
		t.Fatalf("got %q/%v len %d, want b and an empty queue", v, ok, q.Len())
	}
}

func TestDrainBeforeRunFreesUnstartedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	ran := 0
	for i := 0; i < 16; i++ {
		e.Go("unstarted", func(p *Proc) { ran++ })
	}
	e.Drain()
	if ran != 0 {
		t.Fatalf("Drain ran %d process bodies, want none", ran)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after Drain, want at most %d", n, before)
	}
}

func TestProcPanicReraisesFromRun(t *testing.T) {
	e := NewEngine()
	steps := 0
	p := e.Go("faulty", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		steps++
		panic("model bug")
	})
	func() {
		defer func() {
			if r := recover(); r != "model bug" {
				t.Fatalf("recovered %v, want the process's panic value", r)
			}
		}()
		e.RunUntilIdle()
		t.Fatal("RunUntilIdle returned normally past a process panic")
	}()
	if steps != 1 || e.Now() != 10 {
		t.Fatalf("steps = %d at %v, want the panic at 10ns", steps, e.Now())
	}
	p.ResumeFunc()() // a process that panicked is finished: resuming is a no-op
	e.Drain()
}

func TestSelfResumePanics(t *testing.T) {
	e := NewEngine()
	e.Go("reentrant", func(p *Proc) { p.ResumeFunc()() })
	defer e.Drain()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a process resuming itself should panic, not deadlock")
		}
	}()
	e.RunUntilIdle()
}
