package nic

import (
	"testing"

	"ioctopus/internal/device"
	"ioctopus/internal/eth"
	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
)

// postAndReap drives one TxPacket through the full Tx datapath and
// returns it at the driver's recycle point (after Reap).
func postAndReap(t *testing.T, r *rig, q *TxQueue) *TxPacket {
	t.Helper()
	buf := r.mem.NewBuffer(0, 64*1024)
	pkt := r.nic.LeaseTxPacket()
	pkt.Frags = append(pkt.Frags, TxFrag{Buf: buf, Bytes: 64 * 1024})
	pkt.Payload = 64 * 1024
	pkt.Packets = 44
	pkt.Flow = flow(1)
	pkt.Dst = r.far.mac
	q.Post(pkt)
	r.eng.RunUntilIdle()
	batch := q.Reap(64)
	if len(batch) != 1 {
		t.Fatalf("reaped = %d, want 1", len(batch))
	}
	q.NapiComplete()
	return batch[0]
}

func TestTxPoolRecyclesThroughDatapath(t *testing.T) {
	r := newRig(t)
	r.nic.LoadFirmware(NewOctoFirmware(r.nic, false))
	q := r.addTxQueue(0, 0, nil)

	first := postAndReap(t, r, q)
	gen := first.Generation()
	fragPtr := &first.Frags[0]
	first.Recycle()
	if st := r.nic.txPool.Stats(); st.Misses != 1 || st.Recycled != 1 || st.Live != 0 {
		t.Fatalf("stats after first recycle = %+v", st)
	}

	second := postAndReap(t, r, q)
	if second != first {
		t.Fatal("pool should hand back the recycled packet")
	}
	if second.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", second.Generation(), gen+1)
	}
	if &second.Frags[0] != fragPtr {
		t.Fatal("fragment backing array should survive the recycle")
	}
	if st := r.nic.txPool.Stats(); st.Hits != 1 || st.Live != 1 {
		t.Fatalf("stats after reuse = %+v", st)
	}
}

func TestRxPoolRecyclesThroughDatapath(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	q := r.addRxQueue(0, 0, nil)
	fw.ProgramFlow(flow(1), 0, 0)

	deliver := func() *RxPacket {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
		r.eng.RunUntilIdle()
		batch := q.Poll(64)
		q.NapiComplete()
		if len(batch) != 1 {
			t.Fatalf("polled = %d, want 1", len(batch))
		}
		return batch[0]
	}

	first := deliver()
	gen := first.Generation()
	first.Recycle()
	if st := r.nic.rxPool.Stats(); st.Misses != 1 || st.Recycled != 1 || st.Live != 0 {
		t.Fatalf("stats after first recycle = %+v", st)
	}

	second := deliver()
	if second != first {
		t.Fatal("pool should hand back the recycled packet")
	}
	if second.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", second.Generation(), gen+1)
	}
	if st := r.nic.rxPool.Stats(); st.Hits != 1 || st.Live != 1 {
		t.Fatalf("stats after reuse = %+v", st)
	}
}

func TestRxDoubleRecyclePanics(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	q := r.addRxQueue(0, 0, nil)
	fw.ProgramFlow(flow(1), 0, 0)
	r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
	r.eng.RunUntilIdle()
	rxp := q.Poll(64)[0]
	rxp.Recycle()
	defer func() {
		if recover() == nil {
			t.Error("second Recycle should panic")
		}
	}()
	rxp.Recycle()
}

func TestTxDoubleRecyclePanics(t *testing.T) {
	r := newRig(t)
	r.nic.LoadFirmware(NewOctoFirmware(r.nic, false))
	q := r.addTxQueue(0, 0, nil)
	pkt := postAndReap(t, r, q)
	pkt.Recycle()
	defer func() {
		if recover() == nil {
			t.Error("second Recycle should panic")
		}
	}()
	pkt.Recycle()
}

// TestUnpooledRecycleIsNoop: packets built by hand (tests, drop-path
// fakes) have no pool; Recycle must be a harmless no-op, repeatedly.
func TestUnpooledRecycleIsNoop(t *testing.T) {
	rxp := &RxPacket{Payload: 1}
	rxp.Recycle()
	rxp.Recycle()
	pkt := &TxPacket{Payload: 1}
	pkt.Recycle()
	pkt.Recycle()
}

// TestSetPoolingDisablesReuse: with pooling off, every lease allocates
// fresh, Recycle is a no-op and the counters stay silent — the A/B
// configuration the byte-identity regression test runs under.
func TestSetPoolingDisablesReuse(t *testing.T) {
	SetPooling(false)
	defer SetPooling(true)
	r := newRig(t)
	r.nic.LoadFirmware(NewOctoFirmware(r.nic, false))
	q := r.addTxQueue(0, 0, nil)
	first := postAndReap(t, r, q)
	first.Recycle()
	second := postAndReap(t, r, q)
	if second == first {
		t.Fatal("unpooled leases must be fresh objects")
	}
	if st := r.nic.txPool.Stats(); st != (sim.PoolStats{}) {
		t.Fatalf("unpooled stats should stay zero, got %+v", st)
	}
}

// TestRxRingFullDropsLeaveNoLiveLeases: frames that overflow a full
// completion ring are dropped before a pool lease is ever taken, so a
// storm of ring-full drops cannot leak pooled packets. After polling
// and recycling the survivors the live gauge must read zero, with each
// delivered packet recycled exactly once.
func TestRxRingFullDropsLeaveNoLiveLeases(t *testing.T) {
	r := newRig(t)
	fw := NewOctoFirmware(r.nic, false)
	r.nic.LoadFirmware(fw)
	p := r.nic.PF(0)
	ring := device.NewRing(r.mem, 0, 2, 64) // tiny ring
	bufs := []*memsys.Buffer{r.mem.NewBuffer(0, 64*1024)}
	q := p.AddRxQueue(ring, bufs, 0, nil)
	fw.ProgramFlow(flow(1), 0, 0)
	for i := 0; i < 6; i++ {
		r.nic.Receive(&eth.Frame{Dst: r.nic.MAC(), Flow: flow(1), Payload: 1500, Packets: 1})
		r.eng.RunUntilIdle()
	}
	if q.drops == 0 {
		t.Fatal("expected ring-full drops")
	}
	st := r.nic.rxPool.Stats()
	if st.Live != q.Pending() {
		t.Fatalf("live leases = %d, want one per pending packet (%d): dropped frames must not lease", st.Live, q.Pending())
	}
	batch := q.Poll(64)
	q.NapiComplete()
	for _, rxp := range batch {
		rxp.Recycle()
	}
	st = r.nic.rxPool.Stats()
	if st.Live != 0 {
		t.Fatalf("live leases = %d after recycle, want 0", st.Live)
	}
	if st.Recycled != uint64(len(batch)) {
		t.Fatalf("recycled = %d, want exactly %d (once per delivered packet)", st.Recycled, len(batch))
	}
}
