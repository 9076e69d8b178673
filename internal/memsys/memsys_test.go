package memsys

import (
	"testing"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// newSys builds a dual-Broadwell memory system for tests.
func newSys(t *testing.T) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	fab := interconnect.New(e, srv)
	return e, New(e, srv, fab, true)
}

func TestLocalDDIOWriteStaysOutOfDRAM(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 1500)
	s.DeviceWrite(0, b, 1500) // NIC on node 0, memory homed on node 0
	if got := s.node(0).stats.DRAMWriteBytes; got != 0 {
		t.Fatalf("local DDIO write moved %v DRAM bytes, want 0", got)
	}
	if b.CachedAt() != 0 || !b.InDDIO() || !b.Dirty() {
		t.Fatalf("buffer state after DDIO write: node=%d ddio=%v dirty=%v", b.CachedAt(), b.InDDIO(), b.Dirty())
	}
}

func TestRemoteDMAWriteCostsDRAMAndRFO(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(1, 1500) // memory on node 1
	s.DeviceWrite(0, b, 1500) // NIC on node 0: remote DMA
	st := s.node(1).stats
	if st.DRAMWriteBytes != 1500 {
		t.Fatalf("DRAM writes = %v, want 1500", st.DRAMWriteBytes)
	}
	if st.DRAMReadBytes != 1500 {
		t.Fatalf("DRAM RFO reads = %v, want 1500", st.DRAMReadBytes)
	}
	if b.CachedAt() != topology.NoNode {
		t.Fatal("remote DMA write must not allocate in any LLC")
	}
	// The write crossed the interconnect.
	if s.Fabric().Pipe(0, 1).DiscreteBytes() != 1500 {
		t.Fatalf("fabric bytes = %v, want 1500", s.Fabric().Pipe(0, 1).DiscreteBytes())
	}
}

func TestRemoteDMAWriteInvalidatesCachedCopy(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(1, 64)
	s.CPURead(1, b, 64) // CPU on node 1 caches it
	if b.CachedAt() != 1 {
		t.Fatal("setup: buffer should be cached on node 1")
	}
	before := s.node(1).stats
	s.DeviceWrite(0, b, 64) // remote NIC writes it
	if b.CachedAt() != topology.NoNode {
		t.Fatal("DMA write did not invalidate the cached copy")
	}
	// Consumer now misses to DRAM — the ~80ns completion-entry miss.
	lat := s.CPURead(1, b, 64)
	if lat < 80*time.Nanosecond {
		t.Fatalf("post-invalidation read latency = %v, want >= ~85ns DRAM", lat)
	}
	if s.node(1).stats.DRAMReadBytes-before.DRAMReadBytes < 64 {
		t.Fatal("post-invalidation read should hit DRAM")
	}
}

func TestDDIOWriteUpdateHitsExistingLines(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 4096)
	s.CPURead(0, b, 4096) // resident in node 0 main ways
	before := s.node(0).stats
	lat := s.DeviceWrite(0, b, 4096)
	if s.node(0).stats.DRAMWriteBytes != before.DRAMWriteBytes {
		t.Fatal("write-update should not touch DRAM")
	}
	if lat > 100*time.Nanosecond {
		t.Fatalf("write-update latency = %v, want ~LLC", lat)
	}
	if !b.Dirty() {
		t.Fatal("buffer should be dirty after device write")
	}
}

func TestDDIODisabledWritesGoToDRAM(t *testing.T) {
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	s := New(e, srv, interconnect.New(e, srv), false)
	b := s.NewBuffer(0, 1500)
	s.DeviceWrite(0, b, 1500) // local, but DDIO off (llnd config)
	if s.node(0).stats.DRAMWriteBytes != 1500 {
		t.Fatalf("DRAM writes = %v, want 1500 with DDIO off", s.node(0).stats.DRAMWriteBytes)
	}
}

func TestDDIOSpillsWhenPartitionFull(t *testing.T) {
	_, s := newSys(t)
	// DDIO partition = 10% of 35 MiB = 3.5 MiB. Write 8 MiB of distinct
	// buffers; a good part must spill to DRAM.
	var total int64
	for i := 0; i < 64; i++ {
		b := s.NewBuffer(0, 128*1024)
		s.DeviceWrite(0, b, 128*1024)
		total += 128 * 1024
	}
	spilled := s.node(0).stats.DRAMWriteBytes
	if spilled == 0 {
		t.Fatal("expected DDIO spill to DRAM")
	}
	if spilled >= float64(total) {
		t.Fatalf("everything spilled (%v of %v); DDIO ways not used", spilled, total)
	}
}

func TestLocalDeviceReadFromLLCIsFree(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 1500)
	s.CPUWrite(0, b, 1500) // producer dirties it in LLC 0
	before := s.node(0).stats
	s.DeviceRead(0, b, 1500) // local NIC DMA read
	if got := s.node(0).stats.DRAMReadBytes - before.DRAMReadBytes; got != 0 {
		t.Fatalf("local cached DMA read moved %v DRAM bytes, want 0", got)
	}
	if b.CachedAt() != 0 || !b.Dirty() {
		t.Fatal("DMA read must not invalidate or clean the line")
	}
}

func TestRemoteDeviceReadConsumesDRAMEvenWhenCached(t *testing.T) {
	// The Figure 7 observation: remote DMA reads probe LLC and DRAM in
	// parallel, so memory bandwidth equals throughput even on LLC hits.
	_, s := newSys(t)
	b := s.NewBuffer(1, 1500)
	s.CPUWrite(1, b, 1500) // hot in LLC 1
	before := s.node(1).stats
	s.DeviceRead(0, b, 1500) // remote NIC reads it
	if got := s.node(1).stats.DRAMReadBytes - before.DRAMReadBytes; got != 1500 {
		t.Fatalf("parallel-probe DRAM reads = %v, want 1500", got)
	}
	if b.CachedAt() != 1 {
		t.Fatal("remote DMA read must not invalidate the cached copy")
	}
	if s.Fabric().Pipe(1, 0).DiscreteBytes() != 1500 {
		t.Fatal("data should cross the interconnect to the device")
	}
}

func TestUncachedDeviceReadFromDRAM(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(1, 4096)
	lat := s.DeviceRead(1, b, 4096)
	if s.node(1).stats.DRAMReadBytes != 4096 {
		t.Fatalf("DRAM reads = %v, want 4096", s.node(1).stats.DRAMReadBytes)
	}
	if lat < 85*time.Nanosecond {
		t.Fatalf("cold read latency = %v, want >= DRAM latency", lat)
	}
}

func TestCPUReadHitVsMissLatency(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 4096)
	miss := s.CPURead(0, b, 4096)
	hit := s.CPURead(0, b, 4096)
	if hit >= miss {
		t.Fatalf("hit (%v) should be cheaper than miss (%v)", hit, miss)
	}
}

func TestCPUReadRemoteDRAMSlowerThanLocal(t *testing.T) {
	_, s := newSys(t)
	local := s.NewBuffer(0, 64*1024)
	remote := s.NewBuffer(1, 64*1024)
	lLocal := s.CPURead(0, local, 64*1024)
	lRemote := s.CPURead(0, remote, 64*1024)
	if lRemote <= lLocal {
		t.Fatalf("remote read (%v) should cost more than local (%v)", lRemote, lLocal)
	}
}

func TestCPUWriteInvalidatesOtherSocket(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 4096)
	s.CPURead(1, b, 4096) // cached on node 1
	if b.CachedAt() != 1 {
		t.Fatal("setup failed")
	}
	s.CPUWrite(0, b, 4096)
	if b.CachedAt() != 0 {
		t.Fatalf("writer should own the buffer, cached at %d", b.CachedAt())
	}
	if !b.Dirty() {
		t.Fatal("written buffer must be dirty")
	}
}

func TestDirtyRemoteInvalidationWritesBack(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(1, 4096)
	s.CPUWrite(1, b, 4096) // dirty on node 1
	before := s.node(1).stats
	s.CPUWrite(0, b, 4096) // node 0 takes ownership: node 1 must write back
	if got := s.node(1).stats.DRAMWriteBytes - before.DRAMWriteBytes; got < 4096 {
		t.Fatalf("writeback bytes = %v, want >= 4096", got)
	}
}

func TestCacheToCacheReadMigratesResidency(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 4096)
	s.CPUWrite(0, b, 4096)
	lat := s.CPURead(1, b, 4096)
	if b.CachedAt() != 1 {
		t.Fatalf("residency at %d, want 1 after consumer read", b.CachedAt())
	}
	if s.Fabric().Pipe(0, 1).DiscreteBytes() == 0 {
		t.Fatal("cache-to-cache transfer should cross the fabric")
	}
	if lat <= 0 {
		t.Fatal("c2c read must cost time")
	}
	if !b.Dirty() {
		t.Fatal("dirty data stays dirty across c2c migration")
	}
}

func TestLLCEvictionUnderCapacity(t *testing.T) {
	_, s := newSys(t)
	// Fill node 0's main partition (31.5 MiB effective) with 2 MiB
	// buffers, then verify the earliest is evicted.
	first := s.NewBuffer(0, 2*1024*1024)
	s.CPURead(0, first, 2*1024*1024)
	for i := 0; i < 20; i++ {
		b := s.NewBuffer(0, 2*1024*1024)
		s.CPURead(0, b, 2*1024*1024)
	}
	if first.CachedAt() == 0 && first.CachedBytes() > 0 {
		t.Fatal("LRU buffer survived capacity pressure")
	}
}

func TestDirtyEvictionChargesWriteback(t *testing.T) {
	_, s := newSys(t)
	dirty := s.NewBuffer(0, 2*1024*1024)
	s.CPUWrite(0, dirty, 2*1024*1024)
	before := s.node(0).stats
	for i := 0; i < 20; i++ {
		b := s.NewBuffer(0, 2*1024*1024)
		s.CPURead(0, b, 2*1024*1024)
	}
	if dirty.CachedAt() == 0 {
		t.Skip("dirty buffer not evicted under this capacity; adjust fillers")
	}
	if got := s.node(0).stats.DRAMWriteBytes - before.DRAMWriteBytes; got < 2*1024*1024 {
		t.Fatalf("writeback bytes = %v, want >= 2MiB", got)
	}
}

func TestBigBufferCannotMonopolizeLLC(t *testing.T) {
	_, s := newSys(t)
	huge := s.NewBuffer(0, 256*1024*1024)
	s.CPURead(0, huge, 256*1024*1024)
	capMain := int64(float64(35*topology.MiB) * 0.9) // minus DDIO ways
	if huge.CachedBytes() > capMain/2+4096 {
		t.Fatalf("huge buffer cached %v bytes, want <= half the partition", huge.CachedBytes())
	}
}

func TestLLCPressureShrinksCapacity(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 8*1024*1024)
	s.CPURead(0, b, 8*1024*1024)
	noPressure := b.CachedBytes()

	_, s2 := newSys(t)
	release := s2.AddLLCPressure(0, 400e9)
	b2 := s2.NewBuffer(0, 8*1024*1024)
	s2.CPURead(0, b2, 8*1024*1024)
	underPressure := b2.CachedBytes()
	if underPressure >= noPressure {
		t.Fatalf("pressure did not shrink residency: %v vs %v", underPressure, noPressure)
	}
	release()
}

func TestPressureReleaseRestores(t *testing.T) {
	_, s := newSys(t)
	release := s.AddLLCPressure(0, 60e9)
	release()
	b := s.NewBuffer(0, 8*1024*1024)
	s.CPURead(0, b, 8*1024*1024)
	if b.CachedBytes() < 4*1024*1024 {
		t.Fatalf("capacity not restored after release: %v", b.CachedBytes())
	}
}

func TestStatsAndReset(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 4096)
	s.CPURead(0, b, 4096)
	if s.TotalDRAMBytes() == 0 {
		t.Fatal("miss should move DRAM bytes")
	}
}

func TestInterconnectCongestionSlowsRemoteCopies(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(1, 64*1024)
	idle := s.CPURead(0, b, 64*1024)
	s.invalidate(b)

	// Saturate the 1->0 direction with a fluid antagonist.
	s.Fabric().AddFlow("stream", 1, 0, 38e9)
	b2 := s.NewBuffer(1, 64*1024)
	loaded := s.CPURead(0, b2, 64*1024)
	if loaded < 2*idle {
		t.Fatalf("congested remote read %v, want >= 2x idle %v", loaded, idle)
	}
}

func TestMemCtlContentionSlowsLocalMisses(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 64*1024)
	idle := s.CPURead(0, b, 64*1024)
	s.invalidate(b)

	s.MemCtl(0).AddFlow("stream", 59e9) // nearly saturate 60 GB/s
	b2 := s.NewBuffer(0, 64*1024)
	loaded := s.CPURead(0, b2, 64*1024)
	if loaded <= idle {
		t.Fatalf("contended local read %v, want > idle %v", loaded, idle)
	}
}

func TestZeroAndOversizedAccesses(t *testing.T) {
	_, s := newSys(t)
	b := s.NewBuffer(0, 100)
	if s.CPURead(0, b, 0) != 0 {
		t.Fatal("zero-byte read should cost nothing")
	}
	if s.DeviceWrite(0, b, 0) != 0 {
		t.Fatal("zero-byte write should cost nothing")
	}
	// n > size clamps rather than corrupting occupancy accounting: the
	// read costs and counts exactly what a read of the whole buffer does.
	_, whole := newSys(t)
	want := whole.CPURead(0, whole.NewBuffer(0, 100), 100)
	if got := s.CPURead(0, b, 1000); got != want {
		t.Fatalf("1000-byte read of a 100-byte buffer cost %v, a whole-buffer read %v", got, want)
	}
	if got, want := s.node(0).stats, whole.node(0).stats; got != want {
		t.Fatalf("oversized read counted %+v, a whole-buffer read %+v", got, want)
	}
	if b.CachedBytes() > 100 {
		t.Fatalf("cached %v bytes of a 100-byte buffer", b.CachedBytes())
	}
}

func TestNewBufferValidation(t *testing.T) {
	_, s := newSys(t)
	defer func() {
		if recover() == nil {
			t.Error("zero-size buffer should panic")
		}
	}()
	s.NewBuffer(0, 0)
}

// TestTinyLLCKeepsAPageOfEachBuffer: one buffer may fill at most half a
// partition, but never less than 4 KB, so a 4 KB buffer read into a
// cache whose main partition is under 8 KB becomes fully resident.
func TestTinyLLCKeepsAPageOfEachBuffer(t *testing.T) {
	e := sim.NewEngine()
	ref := topology.DualBroadwell().Sockets[0]
	llc := ref.LLC
	llc.Size = 8 * topology.KiB // main partition: 7,373 bytes
	srv := topology.Build("tiny-llc", 1, 1, 2.0, llc, ref.DRAM, topology.InterconnectSpec{})
	s := New(e, srv, interconnect.New(e, srv), true)
	b := s.NewBuffer(0, 4096)
	s.CPURead(0, b, 4096)
	if b.CachedBytes() != 4096 {
		t.Fatalf("cached %d bytes of a 4096-byte buffer, want all of them", b.CachedBytes())
	}
}

// TestLongIdleBufferKeepsAFloorOfHits: under LLC pollution a resident
// buffer's hits decay with its idle time, but never below 5% of the
// bytes read.
func TestLongIdleBufferKeepsAFloorOfHits(t *testing.T) {
	e, s := newSys(t)
	b := s.NewBuffer(0, 64*1024)
	s.CPURead(0, b, 64*1024)
	s.AddLLCPressure(0, 60e9)       // turns the 35 MiB cache over every 0.6 ms
	e.RunFor(10 * time.Millisecond) // exp(-16) of the lines survive
	before := s.node(0).stats
	s.CPURead(0, b, 64*1024)
	if got, want := s.node(0).stats.LLCHitBytes-before.LLCHitBytes, float64(int64(0.05*float64(b.Size()))); got != want {
		t.Fatalf("hit bytes after 10 ms idle = %v, want the 5%% floor %v", got, want)
	}
}
