package device

import (
	"testing"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/memsys"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newRingRig(t *testing.T) (*sim.Engine, *memsys.System, *pcie.Fabric) {
	t.Helper()
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	fab := interconnect.New(e, srv)
	mem := memsys.New(e, srv, fab, memsys.DefaultParams())
	return e, mem, pcie.New(e, mem, pcie.DefaultParams())
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
			NewRing(mem, "bad", 0, bad.entries, bad.size)
		}()
	}
}

func TestRingHostAccessCosts(t *testing.T) {
	_, mem, _ := newRingRig(t)
	r := NewRing(mem, "ring", 0, 1024, 64)
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
	r := NewRing(mem, "cq", 0, 1024, 64)
	done := 0
	// Completion writeback is a plain DMA write into the ring's buffer
	// (the NIC and NVMe queues issue it that way); descriptor fetch goes
	// through DeviceRead.
	ep.DMAWrite(r.Buffer(), 16*r.EntrySize(), func() { done++ })
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
	r := NewRing(mem, "cq", 0, 1024, 64)               // ring on node 0
	r.HostRead(0, 1024)                                // warm the ring
	warm := r.HostRead(0, 32)
	doneCh := false
	remoteEp.DMAWrite(r.Buffer(), 1024*r.EntrySize(), func() { doneCh = true })
	e.RunUntilIdle()
	if !doneCh {
		t.Fatal("device write incomplete")
	}
	cold := r.HostRead(0, 32)
	if cold <= warm*2 {
		t.Fatalf("post-invalidation reads (%v) should be much slower than warm (%v)", cold, warm)
	}
}
