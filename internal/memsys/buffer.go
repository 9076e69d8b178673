package memsys

import (
	"fmt"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Buffer is a region of memory with a DRAM home node and tracked
// cache residency: descriptor rings, packet buffers, user buffers,
// completion queues. A buffer is resident in at most one LLC at a time —
// the producer/consumer patterns of the modelled workloads never share a
// buffer read-write between sockets for long, and migration cost is
// charged when residency moves.
type Buffer struct {
	home topology.NodeID
	size int64

	// Residency.
	node   topology.NodeID // LLC holding it; topology.NoNode if none
	cached int64           // bytes resident (<= size)
	dirty  bool
	ddio   bool // resident in the DDIO partition

	// randomAccess marks buffers touched at uniformly random offsets
	// (a memcached slab, a graph): hits scale with the cached fraction.
	// The default (false) models recycled producer/consumer buffers,
	// where the freshly written bytes are exactly what is read next.
	randomAccess bool

	// LRU links within the holding LLC's partition.
	prev, next *Buffer
	lastTouch  sim.Time
}

// NewBuffer allocates a buffer homed on the given node, uncached.
func (s *System) NewBuffer(home topology.NodeID, size int64) *Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("memsys: buffer on node %d needs positive size, got %d", home, size))
	}
	s.node(home) // validate
	return &Buffer{
		home: home,
		size: size,
		node: topology.NoNode,
	}
}

// Home returns the buffer's DRAM home node.
func (b *Buffer) Home() topology.NodeID { return b.home }

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// CachedAt returns the node whose LLC holds the buffer, or
// topology.NoNode.
func (b *Buffer) CachedAt() topology.NodeID { return b.node }

// CachedBytes returns how many bytes are LLC-resident.
func (b *Buffer) CachedBytes() int64 { return b.cached }

// Dirty reports whether the cached copy is newer than DRAM.
func (b *Buffer) Dirty() bool { return b.dirty }

// InDDIO reports whether the buffer sits in the DDIO partition.
func (b *Buffer) InDDIO() bool { return b.ddio }

// SetRandomAccess marks the buffer as randomly accessed (see the field
// comment); returns the buffer for chaining.
func (b *Buffer) SetRandomAccess(v bool) *Buffer {
	b.randomAccess = v
	return b
}

// hitBytesFor estimates how many of n accessed bytes hit the cached
// portion when the buffer is resident in the accessor's LLC.
func (b *Buffer) hitBytesFor(n int64) int64 {
	if b.node == topology.NoNode || b.size == 0 {
		return 0
	}
	if b.randomAccess {
		return int64(float64(n) * float64(b.cached) / float64(b.size))
	}
	// Recycled-buffer semantics: the most recently written bytes are
	// the ones consumed next, so residency up to n covers the access.
	if b.cached >= n {
		return n
	}
	return b.cached
}

// invalidate drops the buffer from whatever LLC holds it, writing back
// dirty data.
func (s *System) invalidate(b *Buffer) {
	if b.node == topology.NoNode {
		return
	}
	l := s.node(b.node).llc
	if b.dirty {
		s.evictionWriteback(b.node, b)
	}
	l.remove(b)
}
