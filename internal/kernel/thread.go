package kernel

import (
	"fmt"
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Thread is a schedulable kernel thread. Thread code runs as a sim
// process and consumes CPU through Exec/ExecFn, which FIFO-share the
// thread's current core with softirq and worker activity. Thread code
// blocks only through its thread: every wait (Exec, Sleep, Wait, a
// socket call) arranges the thread's wake and then Parks.
//
// A call that takes several kernel-side steps (a socket Send or Recv)
// parks the thread once instead of once per step: it Submits the first
// step's cost with the next step as its then callback, Parks, and each
// step runs in engine context at the event where the thread would have
// resumed, queueing the next one, until the last step Wakes the thread.
type Thread struct {
	k    *Kernel
	core *Core
	proc *sim.Proc
	// wakeFn is the process's cached resume, so passing the wake as a
	// then callback allocates nothing.
	wakeFn func()

	// Exec scratch. A thread has at most one Exec in flight (Submit
	// then Park until completion), so the fixed-cost closure can be
	// built once at Spawn and reused for every call instead of
	// allocating per Exec on the hot path.
	execDur   time.Duration        // fixed duration for Exec
	execFixed func() time.Duration // cached: returns execDur
}

// Spawn creates a thread pinned initially to the given core and starts
// fn on it.
func (k *Kernel) Spawn(name string, core topology.CoreID, fn func(t *Thread)) *Thread {
	t := &Thread{k: k, core: k.Core(core)}
	t.execFixed = func() time.Duration { return t.execDur }
	t.proc = k.eng.Go(fmt.Sprintf("thread:%s", name), func(p *sim.Proc) {
		fn(t)
	})
	t.wakeFn = t.proc.ResumeFunc()
	return t
}

// Core returns the thread's current core id.
func (t *Thread) Core() topology.CoreID { return t.core.id }

// Node returns the NUMA node of the thread's current core.
func (t *Thread) Node() topology.NodeID { return t.core.node }

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
	t.Submit(run, t.wakeFn)
	t.Park()
}

// Submit queues run on the thread's current core without blocking;
// then is the item's done callback, run in engine context in its own
// event once the core has executed it. The work is bound to the core
// at submit: a migration moves only later work.
func (t *Thread) Submit(run func() time.Duration, then func()) {
	t.core.Submit(run, then)
}

// Park blocks the thread until Wake runs. The thread must have arranged
// for that first (a Submit or Signal.Notify whose chain ends in Wake),
// or it sleeps forever.
func (t *Thread) Park() { t.proc.Yield() }

// Wake resumes the parked thread inline: it runs until it blocks again,
// then Wake returns. It must run in engine context, as the last act of
// the step that ends the thread's call.
func (t *Thread) Wake() { t.wakeFn() }

// WakeFunc returns Wake as a cached func value, for a then callback.
func (t *Thread) WakeFunc() func() { return t.wakeFn }

// Sleep blocks the thread for d without consuming CPU: a wake event
// d from now, then Park.
func (t *Thread) Sleep(d time.Duration) {
	t.k.eng.After(d, t.wakeFn)
	t.Park()
}

// Wait blocks the thread until s's next Broadcast: the wake registered
// on s, then Park.
func (t *Thread) Wait(s *sim.Signal) {
	s.Notify(t.wakeFn)
	t.Park()
}

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
	dst.SubmitFixed(ContextSwitch, nil)
	for _, h := range k.migrateHooks {
		h(t, from, core)
	}
}
