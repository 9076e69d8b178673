// The driver watchdog: self-healing against device failure domains.
//
// Real drivers (mlx5's tx_timeout, ixgbe's watchdog task) assume the
// device can wedge underneath them — firmware resets wipe steering
// tables, queues stop delivering completions, and (since kernel-bypass)
// a dedicated poll core can hang on a dead register read with no
// interrupt path watching it. The watchdog is the driver-side answer:
// a periodic tick that samples per-queue Tx progress and poll-loop
// liveness, escalating stuck queues through a staged recovery ladder
//
//	stage 0: queue reset — re-initialize the queue pair and re-post
//	         its descriptors, recovering writebacks stranded
//	         device-side;
//	stage 1: firmware reprogram — replay the driver's journaled flow
//	         rules (the table-wipe repair, octo's resteer machinery
//	         run unconditionally);
//	stage 2: declare the PF dead and hand off to the link-failover
//	         path, which re-steers every flow to surviving PFs.
//
// Each action is followed by an exponential backoff (doubling per
// stage) so the watchdog gives recovery time to take effect instead of
// hammering the ladder; a queue that shows progress for two consecutive
// ticks resets its stage, and a PF the watchdog declared dead is
// brought back through the same failover path once its queues move
// again. PMD degradation is handled per poll loop: a loop whose
// iteration counter stops advancing has its queues flipped back to
// interrupt mode (SetPolled(false) — the exactly-once re-arm), and
// flipped back to polled mode when the loop breathes again.
//
// The tick runs on the simulation engine's timer wheel (kernel-timer
// fiction: a real watchdog burns microseconds per second, below this
// model's resolution of interest), so a disabled watchdog — the
// default — costs exactly nothing: no timer is armed, no state exists.
package driver

import (
	"time"

	"ioctopus/internal/kernel"
	"ioctopus/internal/sim"
)

// watchdogStats are the watchdog's counters (watchdog/... in the
// registry).
type watchdogStats struct {
	Ticks           uint64 // watchdog tick invocations
	QueueResets     uint64 // stage-0 queue resets performed
	FwReprograms    uint64 // stage-1 firmware rule replays triggered
	PFDead          uint64 // stage-2 PF-dead declarations
	PFRecovered     uint64 // watchdog-declared-dead PFs brought back
	PollerFallbacks uint64 // wedged poll loops degraded to interrupts
	PollerReenters  uint64 // recovered loops returned to polled mode
}

// watchdogTicks is how many consecutive no-progress samples mark a
// queue stuck.
const watchdogTicks int = 2

// watchdog is one driver's self-healing state.
type watchdog struct {
	b        *base
	interval time.Duration
	// backoff, 2 × interval, is the holdoff after a recovery action
	// before the watchdog may escalate again; it doubles per ladder
	// stage.
	backoff time.Duration
	tickFn  func() // cached tick, rescheduled every interval

	queues  []wdQueue
	pollers []wdPoller

	// setPFUp is the stage-2 hook (declare a PF dead / recovered),
	// installed by the octo driver after construction; the standard
	// driver has no failover path, so its ladder tops out at stage 1,
	// the firmware reprogram through the driver's journal replay.
	setPFUp func(pf int, up bool)

	// pfDead tracks PFs this watchdog declared dead, so one stuck PF
	// with many queues fails over once and fails back once.
	pfDead map[int]bool

	stats watchdogStats
}

// wdQueue is one queue pair's progress-tracking state.
type wdQueue struct {
	qp       *queuePair
	lastSent uint64
	stuck    int // consecutive no-progress ticks
	healthy  int // consecutive progressing ticks
	stage    int // next ladder stage to try
	nextTry  sim.Time
}

// wdPoller is one busy-poll loop's liveness state.
type wdPoller struct {
	p        *kernel.Poller
	pairs    []*queuePair
	lastIter uint64
	fellBack bool
}

// initWatchdog arms the watchdog if Params enable it; called from
// buildQueues after the queue pairs and pollers exist.
func (b *base) initWatchdog() {
	iv := b.params.WatchdogInterval
	if iv <= 0 {
		return
	}
	w := &watchdog{
		b:        b,
		interval: iv,
		backoff:  2 * iv,
		pfDead:   make(map[int]bool),
	}
	for _, qp := range b.pairs {
		w.queues = append(w.queues, wdQueue{qp: qp})
	}
	if b.pmd != nil {
		for n, p := range b.pmd.pollers {
			if p == nil {
				continue
			}
			w.pollers = append(w.pollers, wdPoller{p: p, pairs: b.pmd.pollerPairs[n]})
		}
	}
	w.tickFn = w.tick
	b.wd = w
	b.k.Engine().After(iv, w.tickFn)
}

// tick is one watchdog pass; it reschedules itself.
func (w *watchdog) tick() {
	w.stats.Ticks++
	now := w.b.k.Engine().Now()
	for i := range w.queues {
		w.checkQueue(&w.queues[i], now)
	}
	for i := range w.pollers {
		w.checkPoller(&w.pollers[i])
	}
	w.b.k.Engine().After(w.interval, w.tickFn)
}

// checkQueue samples one queue pair's Tx progress. "Stuck" is the real
// drivers' tx_timeout condition: descriptors in flight and no
// completion delivered since the last sample.
func (w *watchdog) checkQueue(ws *wdQueue, now sim.Time) {
	sent := ws.qp.tx.Sent()
	if sent != ws.lastSent || ws.qp.tx.InFlight() == 0 {
		ws.lastSent = sent
		ws.stuck = 0
		ws.healthy++
		if ws.healthy >= 2 && ws.stage > 0 {
			w.recovered(ws)
		}
		return
	}
	ws.healthy = 0
	ws.stuck++
	if ws.stuck < watchdogTicks || now < ws.nextTry {
		return
	}
	w.escalate(ws, now)
}

// escalate runs the queue's next ladder stage and arms the backoff.
func (w *watchdog) escalate(ws *wdQueue, now sim.Time) {
	switch ws.stage {
	case 0:
		// Queue reset: recover completions stranded device-side. If the
		// device fault persists, new writebacks stall again and the next
		// escalation climbs the ladder.
		w.stats.QueueResets++
		ws.qp.rx.FlushStalled()
		ws.qp.tx.FlushStalled()
	case 1:
		// Firmware reprogram: replay the journal in case the device lost
		// its steering state along with the queue.
		w.stats.FwReprograms++
		w.b.replayJournal()
	default:
		// Give up on the PF: declare it dead and let the failover path
		// move every flow to the survivors. Guarded per PF — the first
		// stuck queue pulls the trigger for all of them.
		pf := ws.qp.tx.PF().Index()
		if w.setPFUp != nil && !w.pfDead[pf] {
			w.pfDead[pf] = true
			w.stats.PFDead++
			w.setPFUp(pf, false)
		}
	}
	ws.nextTry = now.Add(w.backoff << ws.stage)
	if ws.stage < 2 {
		ws.stage++
	}
	// The action needs watchdogTicks fresh no-progress ticks (plus the
	// backoff) before the next rung fires.
	ws.stuck = 0
}

// recovered resets a queue's ladder after sustained progress and brings
// back a PF the watchdog had declared dead.
func (w *watchdog) recovered(ws *wdQueue) {
	ws.stage = 0
	ws.nextTry = 0
	pf := ws.qp.tx.PF().Index()
	if w.pfDead[pf] {
		delete(w.pfDead, pf)
		w.stats.PFRecovered++
		if w.setPFUp != nil {
			w.setPFUp(pf, true)
		}
	}
}

// checkPoller samples one busy-poll loop's liveness: a loop whose
// iteration count stops advancing is wedged (no interrupt path notices
// — that is the bypass bargain), so its queues fall back to interrupt
// mode until the loop breathes again.
func (w *watchdog) checkPoller(wp *wdPoller) {
	it := wp.p.Iterations()
	alive := it != wp.lastIter
	wp.lastIter = it
	if !alive && !wp.fellBack {
		wp.fellBack = true
		w.stats.PollerFallbacks++
		for _, qp := range wp.pairs {
			// Exactly-once re-arm: leaving polled mode re-runs the
			// interrupt decision, so completions the wedged loop never
			// reaped fire immediately on the NAPI path.
			qp.rx.SetPolled(false)
			qp.tx.SetPolled(false)
		}
		return
	}
	if alive && wp.fellBack {
		wp.fellBack = false
		w.stats.PollerReenters++
		for _, qp := range wp.pairs {
			qp.rx.SetPolled(true)
			qp.tx.SetPolled(true)
		}
	}
}
