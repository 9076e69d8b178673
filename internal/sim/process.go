package sim

import (
	"iter"
	"time"
)

// Proc is a simulated process: model code written in a blocking style
// (Sleep, Wait, queue Get) that runs as a coroutine (iter.Pull)
// rather than a free-running goroutine. The engine resumes a process by
// switching into its coroutine from an event callback and gets control
// back when the process yields or returns, so exactly one piece of
// model code runs at a time: process code needs no locking and runs
// deterministically, and a resume costs a coroutine switch, not a
// channel hand-off between goroutines.
//
// Contract:
//   - The ResumeFunc callback must run in engine context: an event
//     callback, or code such a callback calls. A process that resumes
//     itself panics ("next called again before yield").
//   - A panic in process code other than the engine's own kill unwinds
//     the process and re-raises, with the same value, from the resume
//     that was running it — i.e. out of Engine.Run/RunUntilIdle on the
//     caller's goroutine, where a deferred recover can catch it. The
//     process is dead afterwards: later resumes and Drain skip it.
//   - Engine.Drain kills every live process before it returns: a
//     parked process unwinds from its blocking call (deferred calls
//     run), and one whose start event never ran is freed without
//     running its body.
type Proc struct {
	eng  *Engine
	name string
	// next runs the coroutine until its next yield or its end; stop
	// unwinds it (or, if it never started, frees it unrun).
	next func() (struct{}, bool)
	stop func()
	// yieldFn is the coroutine's yield, set when the body starts. It
	// reports false once stop has been called.
	yieldFn func(struct{}) bool
	// resumeFn caches the resume method value so the (very frequent)
	// Sleep/Wait/Broadcast paths don't allocate a closure per call.
	resumeFn func()
}

// killedError is the panic value used to unwind a killed process.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Go starts fn as a simulated process at the current simulation time.
// The process begins running when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					panic(r) // iter.Pull re-raises it from next
				}
			}
		}()
		fn(p)
		p.finish()
	})
	p.resumeFn = p.resume
	e.procs[p] = len(e.procList)
	e.procList = append(e.procList, p)
	e.After(0, p.resumeFn)
	return p
}

// resume switches into the process coroutine and returns when the
// process yields or finishes; a finished or killed process ignores it.
// Must run in engine context.
func (p *Proc) resume() {
	p.eng.Wakes++
	p.next()
}

// yield returns control to the engine. The process must have arranged to
// be resumed (scheduled a wakeup or registered on a signal/queue) before
// calling yield, or it will sleep forever. A false return means Drain
// stopped the coroutine: unwind with killedError.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(killedError{p.name})
	}
}

// finish removes a completed process from the engine's registry. It
// runs inside the coroutine, in engine context.
func (p *Proc) finish() {
	if i, ok := p.eng.procs[p]; ok {
		last := len(p.eng.procList) - 1
		moved := p.eng.procList[last]
		p.eng.procList[i] = moved
		p.eng.procs[moved] = i
		p.eng.procList[last] = nil
		p.eng.procList = p.eng.procList[:last]
		delete(p.eng.procs, p)
	}
}

// ResumeFunc returns the process's resume callback, the same cached
// function on every call, so passing it as a completion callback
// allocates nothing. It must be invoked from engine event context (an
// event callback, or a component that fires it from one).
func (p *Proc) ResumeFunc() func() { return p.resumeFn }

// Yield parks the process until its ResumeFunc callback runs. The
// caller must have arranged for that before yielding (passed the
// callback to a component, scheduled an event) or the process sleeps
// forever.
func (p *Proc) Yield() { p.yield() }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.After(d, p.resumeFn)
	p.yield()
}

// Signal is a broadcast condition: callbacks registered with Notify,
// and processes that Wait, run on the next Broadcast. There is no
// stored state; a Broadcast with no waiters is a no-op, like
// sync.Cond.
type Signal struct {
	eng     *Engine
	waiters []func()
}

// NewSignal returns a Signal bound to the engine.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Notify registers fn to run, as its own event, at the next Broadcast.
// It fires once; a callback that must keep waiting registers again.
func (s *Signal) Notify(fn func()) { s.waiters = append(s.waiters, fn) }

// Wait suspends the process until the next Broadcast: Notify of its
// resume, then a yield.
func (s *Signal) Wait(p *Proc) {
	s.Notify(p.resumeFn)
	p.yield()
}

// Broadcast schedules every current waiter, in FIFO order, as a
// zero-delay event at the current time.
func (s *Signal) Broadcast() {
	// After only schedules the events; no waiter runs here, so nothing
	// can re-enter Notify while we iterate. That makes it safe to keep
	// the backing array for reuse (cleared so it doesn't pin the
	// callbacks) instead of allocating a fresh one per cycle.
	for _, fn := range s.waiters {
		s.eng.After(0, fn)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}
