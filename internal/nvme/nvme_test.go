package nvme

import (
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/metrics"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

type nvmeRig struct {
	eng  *sim.Engine
	k    *kernel.Kernel
	mem  *memsys.System
	ctrl *Controller
}

func newNvmeRig(t *testing.T, dualPort bool) *nvmeRig {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.DualSkylake()
	fab := interconnect.New(e, topo)
	mem := memsys.New(e, topo, fab, true)
	pc := pcie.New(e, mem)
	cfg := pcie.CardConfig{Name: "nvme0", Gen: pcie.Gen3, TotalLanes: 8,
		Wiring: pcie.WiringDirect, Nodes: []topology.NodeID{1}}
	if dualPort {
		cfg.Wiring = pcie.WiringBifurcated
		cfg.Nodes = []topology.NodeID{1, 0}
	}
	eps := pc.AttachCard(cfg)
	ctrl := New(e, mem, "nvme0", eps)
	k := kernel.New(e, topo, mem)
	return &nvmeRig{eng: e, k: k, mem: mem, ctrl: ctrl}
}

func TestReadCompletesWithFlashLatency(t *testing.T) {
	r := newNvmeRig(t, false)
	d := NewDriver(r.k, r.ctrl, SinglePath)
	buf := r.mem.NewBuffer(1, 128*1024)
	var lat time.Duration
	start := r.eng.Now()
	d.SubmitAsync(24, &Request{Bytes: 128 * 1024, Buf: buf, // core 24 = node 1, local
		OnComplete: func(rq *Request) { lat = r.eng.Now().Sub(start) }})
	r.eng.RunFor(10 * time.Millisecond)
	if lat == 0 {
		t.Fatal("read never completed")
	}
	// Flash latency (90us) + media transfer (128K/3.2G = 40us) dominate.
	if lat < 100*time.Microsecond || lat > 400*time.Microsecond {
		t.Fatalf("latency = %v, want ~130-200us", lat)
	}
	r.eng.Drain()
}

func TestReadDataLandsViaDDIOWhenLocal(t *testing.T) {
	r := newNvmeRig(t, false)
	d := NewDriver(r.k, r.ctrl, SinglePath)
	buf := r.mem.NewBuffer(1, 128*1024) // node 1 = SSD node
	d.SubmitAsync(24, &Request{Bytes: 128 * 1024, Buf: buf})
	r.eng.RunFor(10 * time.Millisecond)
	if buf.CachedAt() != 1 {
		t.Fatal("local read should land in the SSD node's LLC via DDIO")
	}
	r.eng.Drain()
}

func TestRemoteReadCrossesInterconnect(t *testing.T) {
	r := newNvmeRig(t, false)
	d := NewDriver(r.k, r.ctrl, SinglePath)
	buf := r.mem.NewBuffer(0, 128*1024) // fio node, remote to SSD
	d.SubmitAsync(0, &Request{Bytes: 128 * 1024, Buf: buf})
	r.eng.RunFor(10 * time.Millisecond)
	if got := r.mem.Fabric().Pipe(1, 0).DiscreteBytes(); got < 128*1024 {
		t.Fatalf("UPI bytes = %v, want >= 128K (data crossing)", got)
	}
	reg := metrics.NewRegistry()
	r.mem.RegisterMetrics(reg)
	if v, _ := reg.Value("node0/dram_write_bytes"); v < 128*1024 {
		t.Fatal("remote DMA write should land in the fio node's DRAM")
	}
	r.eng.Drain()
}

func TestOctoSSDRoutesByBufferHome(t *testing.T) {
	r := newNvmeRig(t, true) // dual port: port0@node1, port1@node0
	d := NewDriver(r.k, r.ctrl, OctoSSD)
	buf0 := r.mem.NewBuffer(0, 128*1024)
	buf1 := r.mem.NewBuffer(1, 128*1024)
	d.SubmitAsync(0, &Request{Bytes: 128 * 1024, Buf: buf0})
	d.SubmitAsync(0, &Request{Bytes: 128 * 1024, Buf: buf1})
	r.eng.RunFor(10 * time.Millisecond)
	// Each request used the port local to its buffer: no DATA crossed
	// (only 64-byte control structures — the CQE of the request whose
	// queue pair lives on the submitter's node but whose port is on
	// the other socket).
	if got := r.mem.Fabric().Pipe(1, 0).DiscreteBytes(); got > 1024 {
		t.Fatalf("OctoSSD let %v bytes cross 1->0", got)
	}
	if r.ctrl.ports[0].ep.DMAWriteBytes() < 128*1024 ||
		r.ctrl.ports[1].ep.DMAWriteBytes() < 128*1024 {
		t.Fatal("both ports should have carried one request's data")
	}
	r.eng.Drain()
}

func TestSinglePathIgnoresBufferHome(t *testing.T) {
	r := newNvmeRig(t, true)
	d := NewDriver(r.k, r.ctrl, SinglePath)
	buf0 := r.mem.NewBuffer(0, 128*1024)
	d.SubmitAsync(0, &Request{Bytes: 128 * 1024, Buf: buf0})
	r.eng.RunFor(10 * time.Millisecond)
	if r.ctrl.ports[1].ep.DMAWriteBytes() != 0 {
		t.Fatal("single-path must stay on port 0")
	}
	r.eng.Drain()
}

func TestWritesSlowerThanReads(t *testing.T) {
	run := func(write bool) float64 {
		r := newNvmeRig(t, false)
		d := NewDriver(r.k, r.ctrl, SinglePath)
		var bytes int64
		r.k.Spawn("io", 24, func(th *kernel.Thread) {
			var resubmit func(slot int)
			bufs := make([]*memsys.Buffer, 8)
			for i := range bufs {
				bufs[i] = r.mem.NewBuffer(1, 128*1024)
			}
			resubmit = func(slot int) {
				d.SubmitAsync(24, &Request{Write: write, Bytes: 128 * 1024, Buf: bufs[slot],
					OnComplete: func(rq *Request) { bytes += rq.Bytes; resubmit(slot) }})
			}
			for i := 0; i < 8; i++ {
				resubmit(i)
			}
		})
		r.eng.RunFor(50 * time.Millisecond)
		r.eng.Drain()
		if bytes == 0 {
			t.Fatalf("no requests completed (write %v)", write)
		}
		return float64(bytes) / 0.05 / 1e9
	}
	reads := run(false)
	writes := run(true)
	if reads < 2.8 || reads > 3.5 {
		t.Fatalf("read throughput = %.2f GB/s, want ~3.2", reads)
	}
	if writes > reads*0.8 {
		t.Fatalf("writes (%.2f) should be slower than reads (%.2f)", writes, reads)
	}
	if writes > flashWriteBW*1.1/1e9 {
		t.Fatalf("write throughput %.2f GB/s exceeds flash write bandwidth", writes)
	}
	r := newNvmeRig(t, false)
	r.eng.Drain()
}

func TestQueuePairReapAndInterrupts(t *testing.T) {
	r := newNvmeRig(t, false)
	irqs := 0
	qp := r.ctrl.ports[0].NewQueuePair(1, 1, func() { irqs++ })
	buf := r.mem.NewBuffer(1, 4096)
	for i := 0; i < 4; i++ {
		qp.Submit(&Request{Bytes: 4096, Buf: buf})
	}
	r.eng.RunFor(10 * time.Millisecond)
	if irqs == 0 {
		t.Fatal("no completion interrupt")
	}
	if irqs >= 4 {
		t.Fatalf("interrupts = %d; coalescing should batch them", irqs)
	}
	batch := qp.Reap(64)
	if len(batch) != 4 {
		t.Fatalf("reaped = %d", len(batch))
	}
	qp.NapiComplete()
	r.eng.Drain()
}

// TestQueuePairInterruptModeration pins the completion-interrupt
// contract of a queue pair: a burst that completes inside one
// CoalesceDelay raises one interrupt; completions that land while the
// handler owns the queue (after its interrupt, before the re-arm call)
// raise none until the re-arm, then exactly one; Reap hands requests
// back in completion order.
func TestQueuePairInterruptModeration(t *testing.T) {
	r := newNvmeRig(t, false)
	var irqs []sim.Time
	qp := r.ctrl.ports[0].NewQueuePair(1, 1, func() { irqs = append(irqs, r.eng.Now()) })
	// completed holds the instants completions became visible, in order.
	var completed []sim.Time
	qp.OnDeliver(func() { completed = append(completed, r.eng.Now()) })
	small := r.mem.NewBuffer(1, 512)
	big := r.mem.NewBuffer(1, 64<<10)
	delay := coalesceDelay

	// A burst of small reads: the flash pipe completes them well inside
	// one holdoff, so they share one interrupt.
	burst := make([]*Request, 4)
	for i := range burst {
		burst[i] = &Request{Bytes: 512, Buf: small}
		qp.Submit(burst[i])
	}
	r.eng.RunFor(time.Millisecond)
	if len(irqs) != 1 {
		t.Fatalf("burst raised %d interrupts, want 1", len(irqs))
	}
	if len(completed) != len(burst) {
		t.Fatalf("%d of the burst's %d requests completed", len(completed), len(burst))
	}
	last := completed[len(burst)-1]
	if first := completed[0]; first == 0 || last.Sub(first) >= delay {
		t.Fatalf("burst completed over [%v, %v]; want it inside one %v holdoff", first, last, delay)
	}
	if irqs[0] < last {
		t.Fatalf("interrupt at %v before the burst's last completion at %v", irqs[0], last)
	}

	// The handler owns the queue: a 64 KiB write submitted before a
	// 512 B read completes after it (its payload DMA is longer), and
	// neither completion interrupts before the re-arm.
	write := &Request{Write: true, Bytes: 64 << 10, Buf: big}
	read := &Request{Bytes: 512, Buf: small}
	qp.Submit(write)
	qp.Submit(read)
	r.eng.RunFor(time.Millisecond)
	if len(irqs) != 1 {
		t.Fatalf("completions during the handler raised %d interrupts before the re-arm, want none", len(irqs)-1)
	}
	if len(completed) != len(burst)+2 {
		t.Fatalf("%d of the write and the read completed, want both", len(completed)-len(burst))
	}

	// The handler reaps the burst, in completion order, and re-arms with
	// two completions pending: exactly one interrupt follows.
	batch := qp.Reap(len(burst))
	if len(batch) != len(burst) {
		t.Fatalf("reaped %d, want %d", len(batch), len(burst))
	}
	for i, req := range batch {
		if req != burst[i] {
			t.Fatalf("reap[%d] is not the burst's request %d", i, i)
		}
	}
	rearm := r.eng.Now()
	qp.NapiComplete()
	r.eng.RunFor(time.Millisecond)
	if len(irqs) != 2 {
		t.Fatalf("re-arm with pending completions raised %d interrupts, want 1", len(irqs)-1)
	}
	if irqs[1] < rearm.Add(delay) {
		t.Fatalf("re-armed interrupt at %v, want after the %v holdoff from %v", irqs[1], delay, rearm)
	}

	// Completion order, not submission order.
	batch = qp.Reap(64)
	if len(batch) != 2 || batch[0] != read || batch[1] != write {
		t.Fatalf("reaped %d requests; want the read, then the write", len(batch))
	}
	// Re-arming an empty queue raises nothing.
	qp.NapiComplete()
	r.eng.RunFor(time.Millisecond)
	if len(irqs) != 2 {
		t.Fatalf("re-arm of an empty queue raised %d interrupts", len(irqs)-2)
	}
	r.eng.Drain()
}
