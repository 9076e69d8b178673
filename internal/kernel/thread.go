package kernel

import (
	"fmt"
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Thread is a schedulable kernel thread. Thread code runs as a sim
// process and consumes CPU through Exec/ExecFn, which FIFO-share the
// thread's current core with softirq and worker activity.
type Thread struct {
	k    *Kernel
	name string
	core *Core
	proc *sim.Proc

	migrations int
	cpuTime    time.Duration

	// Exec/ExecFn scratch. A thread has at most one Exec in flight
	// (Submit then Yield until completion), so the wrapper closures can
	// be built once at Spawn and reused for every call instead of
	// allocating per Exec on the hot path.
	execRun   func() time.Duration // caller's fn for the in-flight ExecFn
	execTook  time.Duration
	execDur   time.Duration        // fixed duration for Exec
	execWrap  func() time.Duration // cached: runs execRun, records execTook
	execFixed func() time.Duration // cached: returns execDur
}

// Spawn creates a thread pinned initially to the given core and starts
// fn on it.
func (k *Kernel) Spawn(name string, core topology.CoreID, fn func(t *Thread)) *Thread {
	t := &Thread{k: k, name: name, core: k.Core(core)}
	t.execWrap = func() time.Duration {
		t.execTook = t.execRun()
		return t.execTook
	}
	t.execFixed = func() time.Duration { return t.execDur }
	t.proc = k.eng.Go(fmt.Sprintf("thread:%s", name), func(p *sim.Proc) {
		fn(t)
	})
	return t
}

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Core returns the thread's current core id.
func (t *Thread) Core() topology.CoreID { return t.core.id }

// Node returns the NUMA node of the thread's current core.
func (t *Thread) Node() topology.NodeID { return t.core.node }

// Migrations returns how many times the thread has moved cores.
func (t *Thread) Migrations() int { return t.migrations }

// CPUTime returns the thread's accumulated execution time.
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// Proc exposes the underlying sim process for queue/signal waits.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Now returns the current simulation time.
func (t *Thread) Now() sim.Time { return t.k.eng.Now() }

// Exec consumes d of CPU time on the thread's current core, blocking
// until the core has executed it.
func (t *Thread) Exec(d time.Duration) {
	t.execDur = d
	t.ExecFn(t.execFixed)
}

// ExecFn consumes CPU time computed at execution start — use it when
// the cost involves memory-system charges that must be priced when the
// core actually runs the work.
func (t *Thread) ExecFn(run func() time.Duration) {
	c := t.core // bind at submit: migration moves subsequent work only
	t.execRun = run
	c.Submit(t.name, t.execWrap, t.proc.ResumeFunc())
	t.proc.Yield()
	t.execRun = nil
	t.cpuTime += t.execTook
}

// Sleep blocks the thread without consuming CPU.
func (t *Thread) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Wait blocks the thread on a signal.
func (t *Thread) Wait(s *sim.Signal) { s.Wait(t.proc) }

// SetAffinity migrates the thread to another core (the
// sched_setaffinity path of §5.3): charges a context switch on the
// destination and fires the kernel's migration hooks — through which
// the network stack issues ARFS/IOctoRFS updates.
func (k *Kernel) SetAffinity(t *Thread, core topology.CoreID) {
	dst := k.Core(core)
	if dst == t.core {
		return
	}
	from := t.core.id
	t.core = dst
	t.migrations++
	dst.SubmitFixed("migrate:"+t.name, ContextSwitch, nil)
	for _, h := range k.migrateHooks {
		h(t, from, core)
	}
}
