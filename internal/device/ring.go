// Package device provides the building blocks shared by DMA devices
// (the NIC and the NVMe controller): descriptor rings and completion
// queues whose entries live in host memory and are touched by both the
// driver (CPU accesses) and the device (DMA), so that every NUDMA effect
// on the datapath's metadata — the ~80 ns completion-entry miss of
// §5.1.1 in particular — falls out of the memory-system model.
package device

import (
	"fmt"
	"time"

	"ioctopus/internal/memsys"
	"ioctopus/internal/pcie"
	"ioctopus/internal/topology"
)

// Ring is a cyclic descriptor array in host DRAM, priced as memory:
// drivers and devices charge the accesses they make to it and keep no
// per-entry state. The backing memsys.Buffer carries cache residency,
// so host reads after device writes cost what the paper measures.
type Ring struct {
	mem       *memsys.System
	buf       *memsys.Buffer
	entries   int
	entrySize int64
}

// NewRing allocates a ring of entries*entrySize bytes homed on the given
// node.
func NewRing(mem *memsys.System, home topology.NodeID, entries int, entrySize int64) *Ring {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("device: ring size %d must be a power of two", entries))
	}
	if entrySize <= 0 {
		panic(fmt.Sprintf("device: ring entry size %d must be positive", entrySize))
	}
	// Ring entries are distinct cache lines consumed one by one: hits
	// scale with how much of the ring is resident, so a remote DMA
	// write that invalidates the region costs the host one miss per
	// entry read — the §5.1.1 per-packet completion miss.
	return &Ring{
		mem:       mem,
		buf:       mem.NewBuffer(home, int64(entries)*entrySize).SetRandomAccess(true),
		entries:   entries,
		entrySize: entrySize,
	}
}

// Buffer returns the backing memory region.
func (r *Ring) Buffer() *memsys.Buffer { return r.buf }

// Capacity returns the number of entries.
func (r *Ring) Capacity() int { return r.entries }

// HostWrite charges the CPU cost of a core on `node` writing n
// descriptor entries (posting requests).
func (r *Ring) HostWrite(node topology.NodeID, n int) time.Duration {
	return r.mem.CPUWrite(node, r.buf, int64(n)*r.entrySize)
}

// HostRead charges the CPU cost of reading n entries one by one — each
// freshly device-written entry is its own cache line, so per-entry
// misses accumulate exactly as they do on hardware. The run costs what
// n single reads of one entry cost: once a read hits in full, the rest
// of the run repeats it (memsys.System.CPUReadEntries), so only the
// misses are priced one by one.
func (r *Ring) HostRead(node topology.NodeID, n int) time.Duration {
	return r.mem.CPUReadEntries(node, r.buf, r.entrySize, n)
}

// DeviceRead DMA-reads n entries through the endpoint (descriptor
// fetch) and schedules done when they arrive.
func (r *Ring) DeviceRead(ep *pcie.Endpoint, n int, done func()) {
	ep.DMARead(r.buf, int64(n)*r.entrySize, done)
}
