package kernel

import (
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newKernel(t *testing.T) (*sim.Engine, *Kernel) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	ic := interconnect.New(e, srv)
	mem := memsys.New(e, srv, ic, true)
	return e, New(e, srv, mem)
}

func TestSpawnAndExec(t *testing.T) {
	e, k := newKernel(t)
	var end sim.Time
	k.Spawn("worker", 3, func(t *Thread) {
		t.Exec(100 * time.Microsecond)
		end = t.Now()
	})
	e.RunUntilIdle()
	if end != sim.Time(100*time.Microsecond) {
		t.Fatalf("end = %v, want 100us", end)
	}
	if k.Core(3).BusyTime() != 100*time.Microsecond {
		t.Fatalf("core busy = %v", k.Core(3).BusyTime())
	}
	e.Drain()
}

func TestCoreFIFOSharing(t *testing.T) {
	e, k := newKernel(t)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("w", 0, func(t *Thread) {
			t.Exec(50 * time.Microsecond)
			ends = append(ends, t.Now())
		})
	}
	e.RunUntilIdle()
	if len(ends) != 2 {
		t.Fatal("threads did not finish")
	}
	if ends[0] != sim.Time(50*time.Microsecond) || ends[1] != sim.Time(100*time.Microsecond) {
		t.Fatalf("ends = %v, want FIFO serialization on one core", ends)
	}
	e.Drain()
}

func TestThreadsOnDifferentCoresRunInParallel(t *testing.T) {
	e, k := newKernel(t)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("w", topology.CoreID(i), func(t *Thread) {
			t.Exec(50 * time.Microsecond)
			ends = append(ends, t.Now())
		})
	}
	e.RunUntilIdle()
	for _, end := range ends {
		if end != sim.Time(50*time.Microsecond) {
			t.Fatalf("ends = %v, want parallel completion", ends)
		}
	}
	e.Drain()
}

func TestThreadNodeTracksCore(t *testing.T) {
	e, k := newKernel(t)
	var nodes []topology.NodeID
	th := k.Spawn("mover", 0, func(t *Thread) {
		nodes = append(nodes, t.Node())
		t.Sleep(time.Millisecond)
		nodes = append(nodes, t.Node())
	})
	e.After(500*time.Microsecond, func() { k.SetAffinity(th, 20) }) // core 20 is node 1
	e.RunUntilIdle()
	if nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("nodes = %v, want [0 1]", nodes)
	}
	// The migration charged the destination core one context switch.
	if got := k.Core(20).BusyTime(); got != ContextSwitch {
		t.Fatalf("core 20 busy = %v, want one context switch (%v)", got, ContextSwitch)
	}
	e.Drain()
}

func TestMigrationHookFires(t *testing.T) {
	e, k := newKernel(t)
	var hookFrom, hookTo topology.CoreID = -1, -1
	k.OnMigrate(func(t *Thread, from, to topology.CoreID) { hookFrom, hookTo = from, to })
	th := k.Spawn("mover", 2, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(100*time.Microsecond, func() { k.SetAffinity(th, 17) })
	e.RunUntilIdle()
	if hookFrom != 2 || hookTo != 17 {
		t.Fatalf("hook saw %d->%d, want 2->17", hookFrom, hookTo)
	}
	e.Drain()
}

func TestSetAffinitySameCoreIsNoop(t *testing.T) {
	e, k := newKernel(t)
	fired := false
	k.OnMigrate(func(t *Thread, from, to topology.CoreID) { fired = true })
	th := k.Spawn("p", 5, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(10*time.Microsecond, func() { k.SetAffinity(th, 5) })
	e.RunUntilIdle()
	if fired || k.Core(5).BusyTime() != 0 {
		t.Fatal("same-core SetAffinity should be a no-op")
	}
	e.Drain()
}

func TestExecFnPricesAtRunTime(t *testing.T) {
	e, k := newKernel(t)
	var priced sim.Time
	k.Spawn("a", 0, func(t *Thread) { t.Exec(100 * time.Microsecond) })
	k.Spawn("b", 0, func(t *Thread) {
		t.ExecFn(func() time.Duration {
			priced = t.Now() // must be when the core picks it up, not submit time
			return time.Microsecond
		})
	})
	e.RunUntilIdle()
	if priced < sim.Time(100*time.Microsecond) {
		t.Fatalf("cost function ran at %v, want after predecessor", priced)
	}
	e.Drain()
}

func TestIRQCostsEntryPlusHandler(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(0)
	c.NewIRQLine(func() time.Duration { return 700 * time.Nanosecond }).Raise()
	e.RunUntilIdle()
	want := irqEntry + 700*time.Nanosecond
	if c.BusyTime() != want {
		t.Fatalf("busy = %v, want %v", c.BusyTime(), want)
	}
	e.Drain()
}

func TestSubmitFixed(t *testing.T) {
	e, k := newKernel(t)
	c := k.Core(1)
	done := 0
	e.At(0, func() {
		c.SubmitFixed(time.Microsecond, func() { done++ })
		c.SubmitFixed(time.Microsecond, func() { done++ })
	})
	e.RunUntilIdle()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	e.Drain()
}

func TestAllocIsNodeHomed(t *testing.T) {
	e, k := newKernel(t)
	b := k.Alloc(1, 4096)
	if b.Home() != 1 {
		t.Fatalf("home = %d, want 1", b.Home())
	}
	e.Drain()
}

func TestMigrationChargesContextSwitch(t *testing.T) {
	e, k := newKernel(t)
	th := k.Spawn("p", 0, func(t *Thread) { t.Sleep(time.Millisecond) })
	e.After(time.Microsecond, func() { k.SetAffinity(th, 14) })
	e.RunUntilIdle()
	if k.Core(14).BusyTime() < ContextSwitch {
		t.Fatalf("destination core busy = %v, want >= context switch", k.Core(14).BusyTime())
	}
	e.Drain()
}
