// Package memsys models the server's memory system: per-socket DRAM
// behind memory controllers, per-socket last-level caches with a DDIO
// partition, and the coherence behaviour that couples them to DMA.
//
// This is the substrate where NUDMA lives. Every effect the paper
// measures reduces to a rule implemented here:
//
//   - DMA writes to memory homed on the device's socket allocate into
//     that socket's LLC (DDIO) and cost no DRAM bandwidth; remote DMA
//     writes go to DRAM, pay a read-for-ownership, and invalidate cached
//     copies, so the consuming CPU later misses to DRAM (~80 ns).
//   - DMA reads probe LLC and DRAM in parallel: a local cached read is
//     free of DRAM traffic, a remote read consumes DRAM bandwidth equal
//     to the bytes moved even when the data was cached (§5.1.1).
//   - CPU copies run at a bandwidth set by where the data is resident
//     (LLC, local DRAM, remote DRAM) and by current contention on the
//     memory controllers and interconnect.
//
// Residency is tracked per Buffer (a region: a ring, a packet
// buffer, a user buffer) rather than per cache line; the workloads the
// paper runs touch buffers as units, so this granularity reproduces the
// measured effects with tractable event counts.
package memsys

import (
	"fmt"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Cost-model calibration constants for the paper's Broadwell testbed.
// They are properties of the one machine modelled, not options.
const (
	// copyBWLLC is single-core copy bandwidth when the source is
	// LLC-resident, bytes/sec.
	copyBWLLC float64 = 20e9
	// copyBWDRAM is single-core copy bandwidth from local DRAM.
	copyBWDRAM float64 = 11e9
	// copyBWRemote is single-core copy bandwidth from remote DRAM on an
	// idle interconnect (congestion reduces it further).
	copyBWRemote float64 = 8.2e9
	// cacheToCacheBW is cross-socket LLC-to-LLC transfer bandwidth.
	cacheToCacheBW float64 = 8e9
	// bigBufferFraction caps how much of the LLC a single buffer may
	// occupy (a streaming buffer cannot displace the whole cache).
	bigBufferFraction float64 = 0.5
	// latencySensitivity controls how strongly congestion-inflated
	// memory/interconnect latency slows CPU-side copies (loads have
	// limited MLP; DMA bursts don't care). 0 = bandwidth-share only,
	// 1 = fully latency-bound.
	latencySensitivity float64 = 0.5
)

// NodeStats aggregates one node's memory-system counters.
type NodeStats struct {
	DRAMReadBytes  float64
	DRAMWriteBytes float64
	LLCHitBytes    float64
	LLCMissBytes   float64
}

type nodeMem struct {
	id     topology.NodeID
	memctl *sim.Pipe // DRAM bandwidth + latency
	llc    *llc
	stats  NodeStats
}

// System is the runtime memory system of one server.
type System struct {
	eng    *sim.Engine
	topo   *topology.Server
	fabric *interconnect.Fabric
	nodes  []*nodeMem
	// ddio enables Data Direct I/O (§2.2); Figure 9's llnd
	// configuration turns it off.
	ddio bool
}

// New builds the memory system for a server over its interconnect
// fabric, with DDIO on or off.
func New(e *sim.Engine, srv *topology.Server, fabric *interconnect.Fabric, ddio bool) *System {
	s := &System{eng: e, topo: srv, fabric: fabric, ddio: ddio}
	for _, sk := range srv.Sockets {
		s.nodes = append(s.nodes, &nodeMem{
			id: sk.ID,
			memctl: sim.NewPipe(e, sim.PipeConfig{
				Name:        fmt.Sprintf("memctl%d", sk.ID),
				BytesPerSec: sk.DRAM.BytesPerSec,
				BaseLatency: sk.DRAM.Latency,
				// Bank-level parallelism bounds DRAM latency growth
				// under saturation far below an interconnect link's.
				MaxInflation: 6,
			}),
			llc: newLLC(sk.LLC),
		})
	}
	return s
}

// Fabric returns the interconnect the system charges remote traffic to.
func (s *System) Fabric() *interconnect.Fabric { return s.fabric }

// MemCtl returns the memory-controller pipe of a node, letting bulk
// workloads (STREAM, PageRank) register fluid flows against it.
func (s *System) MemCtl(n topology.NodeID) *sim.Pipe { return s.node(n).memctl }

func (s *System) node(n topology.NodeID) *nodeMem {
	if int(n) < 0 || int(n) >= len(s.nodes) {
		panic(fmt.Sprintf("memsys: no node %d", n))
	}
	return s.nodes[n]
}

// AddLLCPressure registers cache pollution on a node's LLC: bps is the
// antagonist's streaming allocation rate in bytes/sec. It lasts for the
// rest of the run.
func (s *System) AddLLCPressure(n topology.NodeID, bps float64) {
	s.node(n).llc.pollutionBps += bps
}

// TotalDRAMBytes returns DRAM read+write bytes across all nodes.
func (s *System) TotalDRAMBytes() float64 {
	var t float64
	for _, n := range s.nodes {
		t += n.stats.DRAMReadBytes + n.stats.DRAMWriteBytes
	}
	return t
}

// derate converts a base streaming bandwidth to its effective value
// under latency inflation: CPU-side accesses are partially
// latency-bound (limited memory-level parallelism), so a congested
// resource slows them more than its leftover bandwidth would suggest.
func (s *System) derate(baseBW, inflation float64) float64 {
	return baseBW / (1 + (inflation-1)*latencySensitivity)
}

// dramRead charges a DRAM read of n bytes at home, requested from
// reqNode, and returns its latency contribution. For CPU requesters
// (cpu=true) baseBW is the core's copy bandwidth, derated by congestion
// latency; for DMA (cpu=false) the transfer runs at the discrete
// bandwidth share of the resources it traverses.
func (s *System) dramRead(reqNode, home topology.NodeID, n int64, baseBW float64, cpu bool) time.Duration {
	nm := s.node(home)
	nm.stats.DRAMReadBytes += float64(n)
	rate := baseBW
	infl := nm.memctl.Inflation()
	if !cpu {
		if a := nm.memctl.Available(); a < rate {
			rate = a
		}
	}
	lat := nm.memctl.Latency(0) // inflated DRAM latency, bytes priced below
	nm.memctl.Charge(n)
	if reqNode != home {
		fp := s.fabric.Pipe(home, reqNode)
		if !cpu {
			// DMA data serializes on the interconnect: queue behind
			// other DMA traffic at the discrete bandwidth share.
			fin := fp.Transfer(n, nil)
			lat += fin.Sub(s.eng.Now())
		} else {
			if fi := fp.Inflation(); fi > infl {
				infl = fi
			}
			lat += s.fabric.Charge(home, reqNode, n)
		}
	}
	if cpu {
		rate = s.derate(rate, infl)
	}
	return lat + time.Duration(float64(n)/rate*1e9)
}

// dramWrite charges a DMA write of n bytes at home, issued from
// reqNode. Writes are posted: the returned latency is the controller's
// (inflated) accept latency plus serialization at the discrete
// bandwidth share of the resources the write traverses.
func (s *System) dramWrite(reqNode, home topology.NodeID, n int64, baseBW float64) time.Duration {
	nm := s.node(home)
	nm.stats.DRAMWriteBytes += float64(n)
	rate := baseBW
	if a := nm.memctl.Available(); a < rate {
		rate = a
	}
	lat := nm.memctl.Latency(0)
	nm.memctl.Charge(n)
	if reqNode != home {
		fin := s.fabric.Pipe(reqNode, home).Transfer(n, nil)
		lat += fin.Sub(s.eng.Now())
	}
	return lat + time.Duration(float64(n)/rate*1e9)
}

// evictionWriteback flushes a dirty buffer's cached bytes home; called
// by LLC eviction. The cost is asynchronous to the forefront access, so
// only the bandwidth is charged.
func (s *System) evictionWriteback(fromNode topology.NodeID, b *Buffer) {
	nm := s.node(b.home)
	nm.stats.DRAMWriteBytes += float64(b.cached)
	nm.memctl.Charge(b.cached)
	if fromNode != b.home {
		s.fabric.Charge(fromNode, b.home, b.cached)
	}
}
