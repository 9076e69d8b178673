package memsys

import (
	"testing"
	"testing/quick"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// op is one randomized memory-system operation.
type op struct {
	Kind  uint8 // read/write x cpu/device
	Node  uint8
	Buf   uint8
	Bytes uint16
}

// applyOps replays a random operation sequence over a small buffer set
// and returns the system plus buffers for invariant checking.
func applyOps(ops []op) (*System, []*Buffer) {
	e := sim.NewEngine()
	srv := topology.DualBroadwell()
	fab := interconnect.New(e, srv)
	s := New(e, srv, fab, true)
	bufs := []*Buffer{
		s.NewBuffer(0, 4096),
		s.NewBuffer(0, 64*1024),
		s.NewBuffer(1, 4096),
		s.NewBuffer(1, 2*1024*1024),
	}
	for _, o := range ops {
		b := bufs[int(o.Buf)%len(bufs)]
		node := topology.NodeID(o.Node % 2)
		n := int64(o.Bytes)
		switch o.Kind % 4 {
		case 0:
			s.CPURead(node, b, n)
		case 1:
			s.CPUWrite(node, b, n)
		case 2:
			s.DeviceRead(node, b, n)
		case 3:
			s.DeviceWrite(node, b, n)
		}
	}
	return s, bufs
}

// TestResidencyInvariants: after any operation sequence, every buffer's
// residency bookkeeping is self-consistent.
func TestResidencyInvariants(t *testing.T) {
	f := func(ops []op) bool {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		s, bufs := applyOps(ops)
		for _, b := range bufs {
			// Cached bytes never exceed the buffer size, never negative.
			if b.CachedBytes() < 0 || b.CachedBytes() > b.Size() {
				return false
			}
			// Uncached buffers have no cached bytes and no dirty state.
			if b.CachedAt() == topology.NoNode && (b.CachedBytes() != 0 || b.Dirty()) {
				return false
			}
			// Cached buffers live on a real node.
			if b.CachedAt() != topology.NoNode && int(b.CachedAt()) >= 2 {
				return false
			}
		}
		// Per-LLC occupancy equals the sum of its residents, within each
		// partition.
		for n := 0; n < 2; n++ {
			l := s.node(topology.NodeID(n)).llc
			var main, ddio int64
			for _, b := range bufs {
				if b.CachedAt() == topology.NodeID(n) {
					if b.InDDIO() {
						ddio += b.CachedBytes()
					} else {
						main += b.CachedBytes()
					}
				}
			}
			if l.main.used != main || l.ddio.used != ddio {
				return false
			}
			// Occupancy never exceeds capacity.
			if l.main.used > l.effMain() || l.ddio.used > l.effDDIO() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCostsAreNonNegative: no operation ever returns a negative
// duration or moves counters backwards.
func TestCostsAreNonNegative(t *testing.T) {
	f := func(ops []op) bool {
		if len(ops) > 100 {
			ops = ops[:100]
		}
		e := sim.NewEngine()
		srv := topology.DualBroadwell()
		fab := interconnect.New(e, srv)
		s := New(e, srv, fab, true)
		b := s.NewBuffer(0, 64*1024)
		prev := 0.0
		for _, o := range ops {
			node := topology.NodeID(o.Node % 2)
			n := int64(o.Bytes)
			var d1, d2, d3, d4 int64
			d1 = int64(s.CPURead(node, b, n))
			d2 = int64(s.CPUWrite(node, b, n))
			d3 = int64(s.DeviceRead(node, b, n))
			d4 = int64(s.DeviceWrite(node, b, n))
			if d1 < 0 || d2 < 0 || d3 < 0 || d4 < 0 {
				return false
			}
			if s.TotalDRAMBytes() < prev {
				return false
			}
			prev = s.TotalDRAMBytes()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHitNeverExceedsAccess: the hit estimator is bounded by the access
// size and residency.
func TestHitNeverExceedsAccess(t *testing.T) {
	f := func(size16, cached16, n16 uint16, random bool) bool {
		size := int64(size16)%65536 + 64
		cached := int64(cached16) % (size + 1)
		n := int64(n16)%size + 1
		b := &Buffer{size: size, cached: cached, node: 0, randomAccess: random}
		h := b.hitBytesFor(n)
		return h >= 0 && h <= n && h <= size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
