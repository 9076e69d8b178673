package driver

import (
	"testing"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
)

func TestWatchdogDisabledByDefault(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	d := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", Params{}, DatapathInterrupt)
	d.Bind(r.st)
	if d.wd != nil {
		t.Fatal("default params must not arm the watchdog (zero cost when idle)")
	}
	r.eng.Drain()
}

// TestWatchdogStageZeroHealsStalledQueue: a transient completion stall
// is healed by the first ladder rung alone — the queue reset flushes
// the stranded writebacks, the queue shows progress again and the
// ladder never climbs to firmware reprogram or PF-dead.
func TestWatchdogStageZeroHealsStalledQueue(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewStandardFirmware(r.nic))
	var params Params
	params.WatchdogInterval = 100 * time.Microsecond
	d := NewStandard(r.k, r.mem, r.nic.PF(0), "eth0", params, DatapathInterrupt)
	d.Bind(r.st)
	if d.wd == nil {
		t.Fatal("watchdog not armed")
	}

	r.nic.SetQueueStall(0, 0, true)
	buf := r.mem.NewBuffer(0, 64*1024)
	r.k.Spawn("tx", 0, func(th *kernel.Thread) {
		xmitAndPark(d, th, &netstack.Packet{
			Flow:    eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 80, Proto: eth.ProtoTCP},
			DstMAC:  r.far.mac,
			Payload: 64 * 1024, Packets: 44,
			Frags: []netstack.Frag{{Buf: buf, Bytes: 64 * 1024}},
		}, 0)
	})
	r.eng.RunFor(2 * time.Millisecond)

	st := d.wd.stats
	if st.QueueResets != 1 {
		t.Fatalf("queue resets = %d, want exactly 1 (stage 0 heals, backoff holds)", st.QueueResets)
	}
	if st.FwReprograms != 0 || st.PFDead != 0 {
		t.Fatalf("ladder climbed past stage 0: reprograms=%d pf dead=%d", st.FwReprograms, st.PFDead)
	}
	if d.TxInFlight(0) != 0 {
		t.Fatalf("in flight = %d after the reset; flush did not recover the writebacks", d.TxInFlight(0))
	}
	if held := r.nic.PF(0).TxQueues()[0].HeldCompletions(); held != 0 {
		t.Fatalf("held completions = %d after the reset", held)
	}
	if st.Ticks == 0 {
		t.Fatal("watchdog never ticked")
	}
}

// TestWatchdogLadderEscalatesToFailoverAndBack is the full staircase: a
// persistent stall defeats the queue reset (new writebacks stall right
// back), defeats the firmware reprogram, and ends in a PF-dead
// declaration that rides the link-failover path. When the stall lifts,
// sustained progress brings the PF back through the same path.
func TestWatchdogLadderEscalatesToFailoverAndBack(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewOctoFirmware(r.nic, false))
	var params Params
	params.WatchdogInterval = 100 * time.Microsecond
	d := NewOcto(r.k, r.mem, r.nic, "octo0", params, DatapathInterrupt)
	d.Bind(r.st)
	ft := eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: eth.ProtoTCP}
	d.SteerFlow(ft, 0)
	r.eng.RunFor(time.Millisecond) // let the steering worker apply

	r.nic.SetQueueStall(0, 0, true)
	buf := r.mem.NewBuffer(0, 1500)
	sent := 0
	var pump func()
	pump = func() {
		if sent >= 40 {
			return
		}
		sent++
		r.k.Spawn("tx", 0, func(th *kernel.Thread) {
			xmitAndPark(d, th, &netstack.Packet{
				Flow: ft, DstMAC: r.far.mac,
				Payload: 1500, Packets: 1,
				Frags: []netstack.Frag{{Buf: buf, Bytes: 1500}},
			}, d.TxQueueForCore(0))
		})
		r.eng.After(100*time.Microsecond, pump)
	}
	r.eng.After(0, pump)
	r.eng.After(2500*time.Microsecond, func() { r.nic.SetQueueStall(0, 0, false) })
	r.eng.RunFor(8 * time.Millisecond)

	st := d.wd.stats
	if st.QueueResets < 1 || st.FwReprograms < 1 || st.PFDead != 1 {
		t.Fatalf("ladder incomplete: resets=%d reprograms=%d pf dead=%d",
			st.QueueResets, st.FwReprograms, st.PFDead)
	}
	if d.rulesReplayed < 1 {
		t.Fatalf("rules replayed = %d; stage 1 did not push the journal", d.rulesReplayed)
	}
	if d.failovers != 1 || d.failbacks != 1 {
		t.Fatalf("failovers=%d failbacks=%d, want 1/1", d.failovers, d.failbacks)
	}
	if st.PFRecovered != 1 {
		t.Fatalf("pf recovered = %d, want 1", st.PFRecovered)
	}
	if held := r.nic.PF(0).TxQueues()[0].HeldCompletions(); held != 0 {
		t.Fatalf("held completions = %d after recovery", held)
	}
}

// TestWatchdogPollerFallbackAndReenter: a wedged busy-poll loop is
// detected by its flat iteration counter; its queues fall back to
// interrupt delivery (exactly-once re-arm) and re-enter polled mode
// when the loop breathes again.
func TestWatchdogPollerFallbackAndReenter(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewOctoFirmware(r.nic, false))
	var params Params
	params.WatchdogInterval = 100 * time.Microsecond
	d := NewOcto(r.k, r.mem, r.nic, "octo0", params, DatapathBusyPoll)
	d.Bind(r.st)
	if len(d.Pollers()) == 0 {
		t.Fatal("busypoll datapath started no pollers")
	}
	r.eng.RunFor(time.Millisecond) // loop running, watchdog sampling

	d.pmd.pollers[0].Wedge(2 * time.Millisecond)
	r.eng.RunFor(time.Millisecond)
	st := d.wd.stats
	if st.PollerFallbacks != 1 {
		t.Fatalf("fallbacks = %d mid-wedge, want 1", st.PollerFallbacks)
	}
	for _, qp := range d.pmd.pollerPairs[0] {
		if qp.rx.Polled() || qp.tx.Polled() {
			t.Fatal("fallen-back queues must be in interrupt mode")
		}
	}
	// Node 1's loop is untouched.
	for _, qp := range d.pmd.pollerPairs[1] {
		if !qp.rx.Polled() {
			t.Fatal("healthy node's queues must stay polled")
		}
	}

	r.eng.RunFor(3 * time.Millisecond) // wedge over, loop resumes
	st = d.wd.stats
	if st.PollerReenters != 1 {
		t.Fatalf("reenters = %d after the wedge, want 1", st.PollerReenters)
	}
	for _, qp := range d.pmd.pollerPairs[0] {
		if !qp.rx.Polled() || !qp.tx.Polled() {
			t.Fatal("recovered queues must re-enter polled mode")
		}
	}
	if st.PollerFallbacks != 1 {
		t.Fatalf("fallbacks = %d at end, want exactly 1", st.PollerFallbacks)
	}
}

// TestDormantPollerWakesOnDeliveryDuringFallback: a busy-poll loop that
// finds its rings empty goes dormant and schedules no events until
// something wakes it. During a watchdog fallback its queues are
// unpolled, so a completion raises an interrupt, but the loop still
// polls those rings: the delivery itself must wake it, and the loop
// reaps the completion as a loop that never slept would.
func TestDormantPollerWakesOnDeliveryDuringFallback(t *testing.T) {
	r := newDrvRig(t)
	r.nic.LoadFirmware(nic.NewOctoFirmware(r.nic, false))
	var params Params
	params.WatchdogInterval = 100 * time.Microsecond
	d := NewOcto(r.k, r.mem, r.nic, "octo0", params, DatapathBusyPoll)
	d.Bind(r.st)
	p, wp := d.pmd.pollers[0], &d.wd.pollers[0]
	r.eng.RunFor(time.Millisecond)

	// No traffic: the iterations a 100µs window covers cost no events.
	it, ev := p.Iterations(), r.eng.Executed
	r.eng.RunFor(100 * time.Microsecond)
	if got := p.Iterations() - it; got != 500 {
		t.Fatalf("idle loop ran %d iterations in 100µs, want 500 at 200ns each", got)
	}
	if got := r.eng.Executed - ev; got > 10 {
		t.Fatalf("idle loop's 100µs window took %d events, want a handful (watchdog ticks)", got)
	}

	// Wedge the loop until the watchdog falls back, then let the wedge
	// end: until the next tick the loop spins over unpolled rings.
	p.Wedge(250 * time.Microsecond)
	for !wp.fellBack {
		r.eng.RunFor(10 * time.Microsecond)
	}
	for it = p.Iterations(); p.Iterations() == it; {
		r.eng.RunFor(time.Microsecond)
	}
	r.eng.RunFor(time.Microsecond) // dormant again: the rings are empty
	qp := d.pmd.pollerPairs[0][0]
	if !wp.fellBack || qp.tx.Polled() {
		t.Fatal("the loop resumed after the next tick: no unpolled window to test")
	}

	bursts := d.pmd.bursts
	buf := r.mem.NewBuffer(0, 1500)
	r.k.Spawn("tx", qp.core, func(th *kernel.Thread) {
		xmitAndPark(d, th, &netstack.Packet{
			Flow:    eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 80, Proto: eth.ProtoTCP},
			DstMAC:  r.far.mac,
			Payload: 1500, Packets: 1,
			Frags: []netstack.Frag{{Buf: buf, Bytes: 1500}},
		}, int(qp.core))
	})
	r.eng.RunFor(20 * time.Microsecond)
	if !wp.fellBack || qp.tx.Polled() {
		t.Fatal("the watchdog re-entered polled mode before the completion landed")
	}
	if qp.tx.Sent() == 0 || qp.tx.InFlight() != 0 {
		t.Fatalf("completion not reaped: sent %d, in flight %d", qp.tx.Sent(), qp.tx.InFlight())
	}
	if d.pmd.bursts != bursts+1 {
		t.Fatalf("poll loop bursts %d -> %d: the loop slept through the completion and NAPI reaped it", bursts, d.pmd.bursts)
	}
	r.eng.Drain()
}
