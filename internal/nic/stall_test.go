package nic

import (
	"testing"

	"ioctopus/internal/eth"
)

// TestRxQueueStallHoldsCompletions: a stalled Rx queue keeps delivering
// DMA (the payload lands) but holds the completion writebacks — nothing
// becomes visible to the driver, no interrupt fires, and the held
// completions flush in arrival order when the stall lifts.
func TestRxQueueStallHoldsCompletions(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	interrupted := 0
	q := r.addRxQueue(0, 0, func() { interrupted++ })
	r.addTxQueue(0, 0, nil) // SetQueueStall freezes the full pair
	fw.ProgramFlow(flow(1), 0, 0)

	r.nic.SetQueueStall(0, 0, true)
	for i := 0; i < 3; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1000 * int64(i+1), Packets: 1, Seq: uint64(i + 1)})
	}
	r.eng.RunUntilIdle()

	if q.Pending() != 0 || q.HeldCompletions() != 3 {
		t.Fatalf("pending=%d held=%d, want 0/3 while stalled", q.Pending(), q.HeldCompletions())
	}
	if interrupted != 0 {
		t.Fatalf("interrupts = %d, a stalled queue must stay silent", interrupted)
	}
	if !q.Stalled() {
		t.Fatal("Stalled() should report the freeze")
	}

	// Releasing the stall flushes everything in arrival order and
	// re-runs the interrupt decision.
	r.nic.SetQueueStall(0, 0, false)
	r.eng.RunUntilIdle()
	if q.HeldCompletions() != 0 || q.Pending() != 3 {
		t.Fatalf("held=%d pending=%d after release, want 0/3", q.HeldCompletions(), q.Pending())
	}
	if interrupted == 0 {
		t.Fatal("release must fire the pending interrupt")
	}
	batch := q.Reap(64)
	for i, rxp := range batch {
		if rxp.Seq != uint64(i+1) {
			t.Fatalf("flush reordered completions: batch[%d].Seq = %d", i, rxp.Seq)
		}
	}
}

// TestTxQueueStallHoldsCompletions mirrors the Rx test on the Tx side:
// the frame still goes out on the wire (transmit already happened),
// only the completion writeback is stranded, so InFlight never drains —
// exactly the tx_timeout signal a driver watchdog samples.
func TestTxQueueStallHoldsCompletions(t *testing.T) {
	r := newRig(t)
	r.nic.LoadFirmware(NewOctoFirmware(r.nic, false))
	r.addRxQueue(0, 0, nil) // SetQueueStall freezes the full pair
	q := r.addTxQueue(0, 0, nil)
	buf := r.mem.NewBuffer(0, 1500)

	r.nic.SetQueueStall(0, 0, true)
	q.Post(&TxPacket{
		Frags: []TxFrag{{Buf: buf, Bytes: 1500}}, Payload: 1500, Packets: 1,
		Flow: flow(1), Dst: r.far.mac,
	})
	r.eng.RunUntilIdle()

	if len(r.far.got) != 1 {
		t.Fatalf("frames on the wire = %d; the stall freezes writebacks, not DMA", len(r.far.got))
	}
	if q.InFlight() != 1 || q.HeldCompletions() != 1 {
		t.Fatalf("inflight=%d held=%d, want 1/1 while stalled", q.InFlight(), q.HeldCompletions())
	}
	if got := q.FlushStalled(); got != 1 {
		t.Fatalf("FlushStalled = %d, want 1", got)
	}
	if q.InFlight() != 0 || len(q.Reap(64)) != 1 {
		t.Fatal("flushed completion did not reach the reap path")
	}
}

// TestSetQueueStallPanicsOnBadIndex: the hook is fault-injection
// plumbing; a nonexistent queue is a harness bug, not a device state.
func TestSetQueueStallPanicsOnBadIndex(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SetQueueStall accepted a queue the PF does not have")
		}
	}()
	r.nic.SetQueueStall(0, 99, true)
}

// TestFirmwareResetWipesSteeringState: a reset empties both firmware
// flavors' flow tables (RSS fallback keeps the queue mapping), bumps
// the NIC's reset counter and fires the registered hooks synchronously.
func TestFirmwareResetWipesSteeringState(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	q0 := r.addRxQueue(0, 0, nil)
	r.addRxQueue(1, 1, nil)
	fw.ProgramFlow(flow(1), 0, 0)
	if fw.FlowCount() != 1 {
		t.Fatal("rule not installed")
	}

	hooks := 0
	r.nic.OnFirmwareReset(func() { hooks++ })
	r.nic.ResetFirmware()
	if fw.FlowCount() != 0 {
		t.Fatalf("flow table survived the reset: %d rules", fw.FlowCount())
	}
	if hooks != 1 {
		t.Fatalf("reset hooks ran %d times, want 1", hooks)
	}

	// Post-reset traffic still lands somewhere: the RSS fallback spreads
	// over existing queues instead of dropping on the wiped table.
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	if r.nic.rxDrops != 0 {
		t.Fatal("frame dropped after reset; RSS fallback should cover it")
	}
	total := q0.Pending()
	for _, q := range r.nic.PF(1).RxQueues() {
		total += q.Pending()
	}
	if total != 1 {
		t.Fatalf("delivered = %d, want 1 via fallback", total)
	}
}

// TestStandardFirmwareResetWipesARFS covers the per-PF table flavor.
func TestStandardFirmwareResetWipesARFS(t *testing.T) {
	r := newRig(t)
	fw := NewStandardFirmware(r.nic)
	r.nic.LoadFirmware(fw)
	r.addRxQueue(0, 0, nil)
	fw.ProgramFlow(flow(1), 0, 0)
	if fw.FlowCount() != 1 {
		t.Fatal("ARFS rule not installed")
	}
	r.nic.ResetFirmware()
	if fw.FlowCount() != 0 {
		t.Fatalf("ARFS table survived the reset: %d rules", fw.FlowCount())
	}
}
