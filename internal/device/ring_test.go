package device

import (
	"fmt"
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/metrics"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newRingRig(t *testing.T) (*sim.Engine, *memsys.System, *pcie.Fabric) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	fab := interconnect.New(e, srv)
	mem := memsys.New(e, srv, fab, true)
	return e, mem, pcie.New(e, mem)
}

func TestRingValidation(t *testing.T) {
	_, mem, _ := newRingRig(t)
	for _, bad := range []struct {
		entries int
		size    int64
	}{{0, 64}, {3, 64}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("entries=%d size=%d should panic", bad.entries, bad.size)
				}
			}()
			NewRing(mem, 0, bad.entries, bad.size)
		}()
	}
}

func TestRingHostAccessCosts(t *testing.T) {
	_, mem, _ := newRingRig(t)
	r := NewRing(mem, 0, 1024, 64)
	// First write misses (RFO); after residency it is cheap.
	first := r.HostWrite(0, 16)
	second := r.HostWrite(0, 16)
	if second >= first {
		t.Fatalf("warm write (%v) should be cheaper than cold (%v)", second, first)
	}
	// Remote reads of a locally-dirty ring pay cache-to-cache/DRAM.
	local := r.HostRead(0, 4)
	remote := r.HostRead(1, 4)
	if remote <= local {
		t.Fatalf("remote read (%v) should cost more than local (%v)", remote, local)
	}
}

func TestRingDeviceAccessRoundTrip(t *testing.T) {
	e, mem, pc := newRingRig(t)
	ep := pc.NewEndpoint("dev", 0, pcie.Gen3, 8)
	r := NewRing(mem, 0, 1024, 64)
	done := 0
	// Completion writeback is a plain DMA write into the ring's buffer
	// (the NIC and NVMe queues issue it that way); descriptor fetch goes
	// through DeviceRead.
	ep.DMAWrite(r.Buffer(), 16*r.entrySize, func() { done++ })
	r.DeviceRead(ep, 16, func() { done++ })
	e.RunUntilIdle()
	if done != 2 {
		t.Fatalf("device accesses completed = %d", done)
	}
	if ep.DMAWriteBytes() != 16*64 || ep.DMAReadBytes() != 16*64 {
		t.Fatalf("bytes = %v/%v", ep.DMAWriteBytes(), ep.DMAReadBytes())
	}
}

func TestRingCompletionMissAfterRemoteWrite(t *testing.T) {
	// The §5.1.1 mechanism end to end at ring granularity: a remote
	// device write invalidates the ring; per-entry host reads then miss.
	e, mem, pc := newRingRig(t)
	remoteEp := pc.NewEndpoint("dev", 1, pcie.Gen3, 8) // device on node 1
	r := NewRing(mem, 0, 1024, 64)                     // ring on node 0
	r.HostRead(0, 1024)                                // warm the ring
	warm := r.HostRead(0, 32)
	doneCh := false
	remoteEp.DMAWrite(r.Buffer(), 1024*r.entrySize, func() { doneCh = true })
	e.RunUntilIdle()
	if !doneCh {
		t.Fatal("device write incomplete")
	}
	cold := r.HostRead(0, 32)
	if cold <= warm*2 {
		t.Fatalf("post-invalidation reads (%v) should be much slower than warm (%v)", cold, warm)
	}
}

// ringTwin is one of two identical memory systems that a test drives
// through the same prelude before each reads the same run of
// completion entries, one with Ring.HostRead and one entry at a time.
type ringTwin struct {
	eng  *sim.Engine
	mem  *memsys.System
	pc   *pcie.Fabric
	ring *Ring
	// bufs holds every buffer of the system, the ring's first.
	bufs []*memsys.Buffer
	// reg holds the memory system's metrics.
	reg *metrics.Registry
}

func newRingTwin(t *testing.T, home topology.NodeID) *ringTwin {
	e, mem, pc := newRingRig(t)
	r := NewRing(mem, home, 1024, 64)
	reg := metrics.NewRegistry()
	mem.RegisterMetrics(reg)
	return &ringTwin{eng: e, mem: mem, pc: pc, ring: r, bufs: []*memsys.Buffer{r.Buffer()}, reg: reg}
}

// singleReads reads n entries with one CPURead per entry, the way
// Ring.HostRead prices a run.
func (tw *ringTwin) singleReads(node topology.NodeID, n int) time.Duration {
	var total time.Duration
	for i := 0; i < n; i++ {
		total += tw.mem.CPURead(node, tw.ring.Buffer(), tw.ring.entrySize)
	}
	return total
}

// deviceWrite DMA-writes the first entries of the ring from a device on
// node and runs the write to completion.
func (tw *ringTwin) deviceWrite(node topology.NodeID, entries int) {
	ep := tw.pc.NewEndpoint("dev", node, pcie.Gen3, 8)
	ep.DMAWrite(tw.ring.Buffer(), int64(entries)*tw.ring.entrySize, nil)
	tw.eng.RunUntilIdle()
}

// fillLLCDirty fills node's main LLC ways exactly to capacity with dirty
// buffers, the oldest of them small and homed alternately on node 1 and
// node 0, so each later miss on node evicts a dirty victim and writes
// it back, across the interconnect for the node-1 ones.
func (tw *ringTwin) fillLLCDirty(node topology.NodeID) {
	spec := topology.DualBroadwell().Socket(node).LLC
	ddioCap := int64(float64(spec.Size) * spec.DDIOFraction)
	room := spec.Size - ddioCap
	const small = 4096
	for i := 0; i < 64; i++ {
		b := tw.mem.NewBuffer(topology.NodeID(1-i%2), small)
		tw.mem.CPUWrite(node, b, small)
		tw.bufs = append(tw.bufs, b)
		room -= small
	}
	for _, size := range []int64{room / 2, room - room/2} {
		b := tw.mem.NewBuffer(node, size)
		tw.mem.CPUWrite(node, b, size)
		tw.bufs = append(tw.bufs, b)
	}
}

// ringReadStates are the residency states a run of completion-entry
// reads can start from; the reader is node 0 throughout.
var ringReadStates = []struct {
	name    string
	home    topology.NodeID
	prelude func(tw *ringTwin)
}{
	{"resident", 0, func(tw *ringTwin) { tw.ring.HostWrite(0, 1024) }},
	{"warm-reads", 0, func(tw *ringTwin) { tw.ring.HostRead(0, 1024) }},
	{"ddio", 0, func(tw *ringTwin) { tw.deviceWrite(0, 1024) }},
	{"ddio-partial", 0, func(tw *ringTwin) { tw.deviceWrite(0, 100) }},
	{"partial", 0, func(tw *ringTwin) { tw.ring.HostWrite(0, 100) }},
	{"remote-dma", 0, func(tw *ringTwin) {
		tw.ring.HostWrite(0, 1024)
		tw.deviceWrite(1, 1024)
	}},
	{"other-socket", 0, func(tw *ringTwin) { tw.ring.HostWrite(1, 1024) }},
	{"pressure", 0, func(tw *ringTwin) {
		tw.ring.HostWrite(0, 1024)
		tw.mem.AddLLCPressure(0, 30e9)
		tw.eng.RunFor(3 * time.Microsecond)
	}},
	{"pressure-partial", 0, func(tw *ringTwin) {
		tw.ring.HostWrite(0, 600)
		tw.mem.AddLLCPressure(0, 30e9)
		tw.eng.RunFor(200 * time.Microsecond)
	}},
	{"dirty-evict", 0, func(tw *ringTwin) { tw.fillLLCDirty(0) }},
	{"away-cold", 1, func(tw *ringTwin) {}},
	{"away-ddio", 1, func(tw *ringTwin) { tw.deviceWrite(1, 1024) }},
}

// TestHostReadMatchesSingleReads pins Ring.HostRead to n single
// CPURead calls: from every residency state, a run of n entries costs
// the same and leaves the same counters, residency and pipe state
// behind, exactly. Each run is followed by two more runs of seeded
// length: one at the same instant, one after a seeded gap in which a
// device on a seeded node may write a seeded number of new entries.
func TestHostReadMatchesSingleReads(t *testing.T) {
	rng := sim.NewRNG(20)
	for _, st := range ringReadStates {
		for n := 1; n <= 64; n++ {
			a, b := newRingTwin(t, st.home), newRingTwin(t, st.home)
			st.prelude(a)
			st.prelude(b)
			runs := []int{n, 1 + rng.Intn(64), 1 + rng.Intn(64)}
			gap := time.Duration(rng.Intn(4000)) * time.Nanosecond
			writer, written := topology.NodeID(rng.Intn(3)), 1+rng.Intn(64)
			for i, m := range runs {
				if i == 2 {
					a.eng.RunFor(gap)
					b.eng.RunFor(gap)
					if writer < 2 {
						a.deviceWrite(writer, written)
						b.deviceWrite(writer, written)
					}
				}
				got, want := a.ring.HostRead(0, m), b.singleReads(0, m)
				label := fmt.Sprintf("%s n=%d run %d (%d entries)", st.name, n, i, m)
				if got != want {
					t.Fatalf("%s: HostRead cost %v, single reads %v", label, got, want)
				}
				compareRingTwins(t, label, a, b)
			}
			if st.name == "dirty-evict" && a.bufs[1].CachedAt() != topology.NoNode {
				t.Fatalf("%s n=%d: the oldest dirty victim was not evicted", st.name, n)
			}
		}
	}
}

// compareRingTwins requires both systems to agree on every node's
// counters, every buffer's residency and every memory-controller and
// interconnect pipe's rate, utilization and byte count.
func compareRingTwins(t *testing.T, label string, a, b *ringTwin) {
	t.Helper()
	const nodes = 2 // newRingRig's dual Broadwell
	for n := 0; n < nodes; n++ {
		for _, c := range []string{"dram_read_bytes", "dram_write_bytes", "llc_hit_bytes", "llc_miss_bytes"} {
			name := fmt.Sprintf("node%d/%s", n, c)
			va, _ := a.reg.Value(name)
			vb, _ := b.reg.Value(name)
			if va != vb {
				t.Fatalf("%s: %s %v, single reads %v", label, name, va, vb)
			}
		}
	}
	for i, ba := range a.bufs {
		bb := b.bufs[i]
		if ba.CachedAt() != bb.CachedAt() || ba.CachedBytes() != bb.CachedBytes() ||
			ba.Dirty() != bb.Dirty() || ba.InDDIO() != bb.InDDIO() {
			t.Fatalf("%s: buffer %d at %d (%d B, dirty %v, ddio %v), single reads at %d (%d B, dirty %v, ddio %v)",
				label, i, ba.CachedAt(), ba.CachedBytes(), ba.Dirty(), ba.InDDIO(),
				bb.CachedAt(), bb.CachedBytes(), bb.Dirty(), bb.InDDIO())
		}
	}
	var pa, pb []*sim.Pipe
	for n := 0; n < nodes; n++ {
		pa = append(pa, a.mem.MemCtl(topology.NodeID(n)))
		pb = append(pb, b.mem.MemCtl(topology.NodeID(n)))
		for m := 0; m < nodes; m++ {
			if m != n {
				pa = append(pa, a.mem.Fabric().Pipe(topology.NodeID(n), topology.NodeID(m)))
				pb = append(pb, b.mem.Fabric().Pipe(topology.NodeID(n), topology.NodeID(m)))
			}
		}
	}
	for i := range pa {
		if ra, rb := pa[i].DiscreteRate(), pb[i].DiscreteRate(); ra != rb {
			t.Fatalf("%s: pipe %d discrete rate %v, single reads %v", label, i, ra, rb)
		}
		if ua, ub := pa[i].Utilization(), pb[i].Utilization(); ua != ub {
			t.Fatalf("%s: pipe %d utilization %v, single reads %v", label, i, ua, ub)
		}
		if ta, tb := pa[i].TotalBytes(), pb[i].TotalBytes(); ta != tb {
			t.Fatalf("%s: pipe %d bytes %v, single reads %v", label, i, ta, tb)
		}
	}
}
