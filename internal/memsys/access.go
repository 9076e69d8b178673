package memsys

import (
	"time"

	"ioctopus/internal/topology"
)

// CPURead models a core on `node` reading n bytes from the buffer
// (copying it out, as recv() or a completion-entry read does) and
// returns the time the read costs that core. Side effects: DRAM and
// interconnect bandwidth are charged for the miss portion and the
// buffer becomes resident in the reader's LLC. A run of such reads at
// one instant is what CPUReadEntries prices, at exactly the cost and
// with exactly the side effects of the single reads.
func (s *System) CPURead(node topology.NodeID, b *Buffer, n int64) time.Duration {
	cost, _ := s.read(node, b, n)
	return cost
}

// CPUReadEntries models a core on node reading n entries of entryBytes
// each from the buffer, one after another at the current instant — a
// driver consuming a batch of completion entries — and returns their
// total cost, which is what n CPURead calls cost. Reads run one at a
// time until one hits in full. That read leaves the buffer resident in
// the reader's LLC, just touched (so the next read's survival under
// LLC pollution is 1) and otherwise unchanged, so every later read at
// this instant repeats it byte for byte: the rest are priced at its
// cost and their hit bytes counted at once. Misses stay one read at a
// time, since each one moves the memory controller's rate estimate and
// the LLC's LRU order.
func (s *System) CPUReadEntries(node topology.NodeID, b *Buffer, entryBytes int64, n int) time.Duration {
	var total time.Duration
	for i := 0; i < n; i++ {
		cost, full := s.read(node, b, entryBytes)
		total += cost
		if full {
			// Costs are integer durations and hit counters hold
			// integer byte counts far below 2^53, so multiplying the
			// repeated read equals adding it up.
			rest := int64(n - 1 - i)
			s.node(node).stats.LLCHitBytes += float64(rest * min64(entryBytes, b.size))
			return total + time.Duration(rest)*cost
		}
	}
	return total
}

// read is one CPURead; full reports that every byte hit in the
// reader's LLC.
func (s *System) read(node topology.NodeID, b *Buffer, n int64) (cost time.Duration, full bool) {
	if n <= 0 {
		return 0, false
	}
	if n > b.size {
		n = b.size
	}
	now := s.eng.Now()
	nm := s.node(node)

	var hits int64
	if b.node == node {
		hits = b.hitBytesFor(n)
		// Antagonist pollution evicts resident lines while they sit
		// idle: hits degrade with time-since-touch (how STREAM erodes
		// DDIO's benefit in Figure 11 without hurting hot lines).
		if surv := nm.llc.survivingFraction(now.Sub(b.lastTouch)); surv < 1 {
			hits = int64(float64(hits) * surv)
		}
	}
	miss := n - hits
	if miss > 0 && miss < 64 && b.cached >= b.size-64 {
		// The buffer is fully resident up to sub-cacheline dust; the
		// fractional remainder is an estimator artifact, not a fetch.
		hits += miss
		miss = 0
	}

	if hits > 0 {
		nm.stats.LLCHitBytes += float64(hits)
		cost += b.llcSpec(s).HitLatency + bytesAt(hits, copyBWLLC)
	}
	if miss > 0 {
		nm.stats.LLCMissBytes += float64(miss)
		switch {
		case b.node != topology.NoNode && b.node != node:
			// Cached in another socket's LLC: cache-to-cache transfer,
			// no invalidation of the source needed for a read, but our
			// model migrates residency to the reader (the common
			// producer/consumer handoff). Dirty data stays dirty.
			src := b.node
			rate := s.derate(cacheToCacheBW, s.fabric.Pipe(src, node).Inflation())
			cost += s.fabric.Charge(src, node, miss)
			cost += bytesAt(miss, rate)
			dirty := b.dirty
			cached := b.cached
			s.node(src).llc.list(b.ddio).remove(b)
			b.node = topology.NoNode
			b.cached = 0
			b.ddio = false
			nm.llc.insert(s, node, b, min64(cached+miss, b.size), false, now)
			b.dirty = dirty
		default:
			// Fetch from home DRAM.
			base := copyBWDRAM
			if b.home != node {
				base = copyBWRemote
			}
			cost += s.dramRead(node, b.home, miss, base, true)
			// Fetches fill whole cache lines: residency grows in line
			// units even when the estimated miss is fractional.
			nm.llc.insert(s, node, b, roundLines(miss), false, now)
		}
		return cost, false
	}
	nm.llc.touch(b, now)
	return cost, true
}

// CPUWrite models a core on `node` writing n bytes into the buffer and
// returns the core-time cost. The written range becomes dirty in the
// writer's LLC; copies on other sockets are invalidated (with writeback
// if dirty); the uncached portion pays a read-for-ownership.
func (s *System) CPUWrite(node topology.NodeID, b *Buffer, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	if n > b.size {
		n = b.size
	}
	now := s.eng.Now()
	nm := s.node(node)
	var cost time.Duration

	if b.node != topology.NoNode && b.node != node {
		// Invalidate the remote copy; dirty data must reach DRAM first.
		cost += s.fabric.Latency(node, b.node, 64) // ownership request
		s.invalidate(b)
	}

	var hits int64
	if b.node == node {
		hits = b.hitBytesFor(n)
	}
	miss := n - hits
	if miss > 0 && miss < 64 && b.cached >= b.size-64 {
		hits += miss
		miss = 0
	}

	cost += bytesAt(n, copyBWLLC)
	if miss > 0 {
		// Write-allocate: the uncached portion pays a read-for-ownership.
		base := copyBWDRAM
		if b.home != node {
			base = copyBWRemote
		}
		cost += s.dramRead(node, b.home, miss, base, true)
		nm.llc.insert(s, node, b, roundLines(miss), false, now)
	} else {
		nm.llc.touch(b, now)
	}
	b.dirty = true
	return cost
}

// DeviceWrite models a DMA write of n bytes into the buffer by a device
// whose PCIe endpoint sits on devNode, returning the posting latency the
// device observes. PCIe link time is the caller's (the DMA engine paces
// its own link); this charges the memory side:
//
//   - local + DDIO: allocate into devNode's LLC DDIO ways; overflow
//     spills to DRAM;
//   - remote or DDIO off: DRAM write + read-for-ownership at the home
//     node, interconnect crossing, and invalidation of any cached copy —
//     the consuming CPU will miss.
func (s *System) DeviceWrite(devNode topology.NodeID, b *Buffer, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	if n > b.size {
		n = b.size
	}
	now := s.eng.Now()
	local := b.home == devNode

	if local && s.ddio {
		nm := s.node(devNode)
		if b.node != topology.NoNode && b.node != devNode {
			s.invalidate(b)
		}
		if b.node == devNode && !b.ddio {
			// DDIO write-update: lines already in the main ways are
			// updated in place.
			nm.llc.touch(b, now)
			b.dirty = true
			return nm.llc.spec.HitLatency
		}
		grow := n
		if b.node == devNode {
			grow = n - b.hitBytesFor(n)
		}
		var cost time.Duration
		got := nm.llc.insert(s, devNode, b, grow, true, now)
		if spill := grow - got; spill > 0 {
			// DDIO ways exhausted: the remainder lands in DRAM.
			cost += s.dramWrite(devNode, b.home, spill, s.topo.Socket(b.home).DRAM.BytesPerSec)
			s.node(b.home).stats.DRAMReadBytes += float64(spill)
			s.node(b.home).memctl.Charge(spill)
		}
		b.dirty = true
		return cost + nm.llc.spec.HitLatency
	}

	// Remote DMA write (or DDIO disabled).
	if b.node != topology.NoNode {
		s.invalidate(b)
	}
	cost := s.dramWrite(devNode, b.home, n, s.topo.Socket(b.home).DRAM.BytesPerSec)
	// Home-agent ownership read accompanying the write: with the write
	// itself and the consumer's later miss, the 3x memory traffic of
	// Fig 6.
	s.node(b.home).stats.DRAMReadBytes += float64(n)
	s.node(b.home).memctl.Charge(n)
	return cost
}

// DeviceRead models a DMA read of n bytes from the buffer by a device on
// devNode, returning the latency to first data. Cached data is served
// from the LLC without invalidation; per the parallel-probe behaviour
// (§5.1.1), a read by a remote device consumes DRAM bandwidth equal to
// the bytes moved even when the LLC supplies the data.
func (s *System) DeviceRead(devNode topology.NodeID, b *Buffer, n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	if n > b.size {
		n = b.size
	}
	now := s.eng.Now()

	if b.node != topology.NoNode {
		l := s.node(b.node).llc
		l.touch(b, now)
		cost := l.spec.HitLatency
		if b.node != devNode {
			// Parallel DRAM probe consumes home bandwidth...
			s.node(b.home).stats.DRAMReadBytes += float64(n)
			s.node(b.home).memctl.Charge(n)
			// ...and the data crosses the interconnect to the device,
			// serialized with other DMA traffic.
			fin := s.fabric.Pipe(b.node, devNode).Transfer(n, nil)
			cost += fin.Sub(s.eng.Now())
		}
		return cost
	}

	// Uncached: DRAM read at home.
	rate := s.topo.Socket(b.home).DRAM.BytesPerSec
	return s.dramRead(devNode, b.home, n, rate, false)
}

// bytesAt converts a byte count and bandwidth to a duration.
func bytesAt(n int64, bw float64) time.Duration {
	if bw <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * 1e9)
}

// roundLines rounds a byte count up to whole 64-byte cache lines.
func roundLines(n int64) int64 { return (n + 63) / 64 * 64 }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// llcSpec returns the LLC spec of whatever node caches the buffer (or
// its home when uncached) for latency lookups.
func (b *Buffer) llcSpec(s *System) topology.LLCSpec {
	n := b.node
	if n == topology.NoNode {
		n = b.home
	}
	return s.node(n).llc.spec
}
