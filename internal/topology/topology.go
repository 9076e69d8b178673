// Package topology describes the hardware of a simulated multi-socket
// server: sockets (NUMA nodes) with cores, DRAM, last-level cache, memory
// and I/O controllers, and the CPU interconnect joining them. It is pure
// description — runtime behaviour lives in internal/memsys,
// internal/interconnect and internal/pcie, which are built from these
// specs.
package topology

import (
	"fmt"
	"time"
)

// NodeID identifies a NUMA node (== socket in this model).
type NodeID int

// NoNode is the sentinel for "not on any node".
const NoNode NodeID = -1

// CoreID identifies a core globally (across sockets).
type CoreID int

// Core is one CPU core.
type Core struct {
	ID      CoreID
	Node    NodeID
	FreqGHz float64
}

// LLCSpec describes a socket's last-level cache.
type LLCSpec struct {
	// Size is the total LLC capacity in bytes.
	Size int64
	// DDIOFraction is the fraction of capacity DMA writes may allocate
	// into (Intel dedicates 2 of 20 ways ≈ 10%).
	DDIOFraction float64
	// HitLatency is the load-to-use latency of an LLC hit.
	HitLatency time.Duration
}

// DRAMSpec describes a socket's memory subsystem.
type DRAMSpec struct {
	// Capacity in bytes.
	Capacity int64
	// BytesPerSec is the sustained memory-controller bandwidth.
	BytesPerSec float64
	// Latency is the idle load-to-use latency of a local DRAM access.
	Latency time.Duration
}

// InterconnectSpec describes the socket-to-socket links (QPI/UPI/HT).
type InterconnectSpec struct {
	// Name, e.g. "QPI 9.6GT/s" or "UPI 10.4GT/s".
	Name string
	// LinksPerPair is how many parallel links join each socket pair.
	LinksPerPair int
	// BytesPerSecPerLink is one link's bandwidth per direction.
	BytesPerSecPerLink float64
	// BaseLatency is the idle one-way crossing latency.
	BaseLatency time.Duration
}

// AggregateBandwidth returns the total one-direction bandwidth between a
// socket pair.
func (s InterconnectSpec) AggregateBandwidth() float64 {
	return float64(s.LinksPerPair) * s.BytesPerSecPerLink
}

// Socket is one CPU package and its local resources.
type Socket struct {
	ID    NodeID
	Cores []*Core
	LLC   LLCSpec
	DRAM  DRAMSpec
}

// Server is a complete machine description.
type Server struct {
	Name         string
	Sockets      []*Socket
	Interconnect InterconnectSpec
}

// NumNodes returns the socket count.
func (s *Server) NumNodes() int { return len(s.Sockets) }

// NumCores returns the total core count.
func (s *Server) NumCores() int {
	n := 0
	for _, sk := range s.Sockets {
		n += len(sk.Cores)
	}
	return n
}

// Socket returns the socket with the given node id.
func (s *Server) Socket(n NodeID) *Socket {
	if int(n) < 0 || int(n) >= len(s.Sockets) {
		panic(fmt.Sprintf("topology: no socket %d on %s", n, s.Name))
	}
	return s.Sockets[n]
}

// Core returns the core with the given global id.
func (s *Server) Core(c CoreID) *Core {
	for _, sk := range s.Sockets {
		for _, co := range sk.Cores {
			if co.ID == c {
				return co
			}
		}
	}
	panic(fmt.Sprintf("topology: no core %d on %s", c, s.Name))
}

// CoresOn returns the cores of one node.
func (s *Server) CoresOn(n NodeID) []*Core { return s.Socket(n).Cores }

// NodeOf returns the node a core belongs to.
func (s *Server) NodeOf(c CoreID) NodeID { return s.Core(c).Node }

// Validate checks internal consistency of the description.
func (s *Server) Validate() error {
	if len(s.Sockets) == 0 {
		return fmt.Errorf("topology %s: no sockets", s.Name)
	}
	seen := make(map[CoreID]bool)
	for i, sk := range s.Sockets {
		if sk.ID != NodeID(i) {
			return fmt.Errorf("topology %s: socket %d has id %d", s.Name, i, sk.ID)
		}
		if len(sk.Cores) == 0 {
			return fmt.Errorf("topology %s: socket %d has no cores", s.Name, i)
		}
		if sk.LLC.Size <= 0 || sk.LLC.DDIOFraction < 0 || sk.LLC.DDIOFraction > 1 {
			return fmt.Errorf("topology %s: socket %d has bad LLC spec %+v", s.Name, i, sk.LLC)
		}
		if sk.DRAM.BytesPerSec <= 0 || sk.DRAM.Capacity <= 0 {
			return fmt.Errorf("topology %s: socket %d has bad DRAM spec %+v", s.Name, i, sk.DRAM)
		}
		for _, c := range sk.Cores {
			if c.Node != sk.ID {
				return fmt.Errorf("topology %s: core %d claims node %d, lives on %d", s.Name, c.ID, c.Node, sk.ID)
			}
			if seen[c.ID] {
				return fmt.Errorf("topology %s: duplicate core id %d", s.Name, c.ID)
			}
			seen[c.ID] = true
		}
	}
	if len(s.Sockets) > 1 {
		ic := s.Interconnect
		if ic.LinksPerPair <= 0 || ic.BytesPerSecPerLink <= 0 {
			return fmt.Errorf("topology %s: multi-socket server needs an interconnect, got %+v", s.Name, ic)
		}
	}
	return nil
}

// Build constructs a server with the given socket count and cores per
// socket, applying the per-socket template. Core IDs are dense, socket-
// major, matching Linux's numbering for the evaluated machines.
func Build(name string, sockets, coresPerSocket int, freqGHz float64, llc LLCSpec, dram DRAMSpec, ic InterconnectSpec) *Server {
	srv := &Server{Name: name, Interconnect: ic}
	id := CoreID(0)
	for s := 0; s < sockets; s++ {
		sk := &Socket{ID: NodeID(s), LLC: llc, DRAM: dram}
		for c := 0; c < coresPerSocket; c++ {
			sk.Cores = append(sk.Cores, &Core{ID: id, Node: NodeID(s), FreqGHz: freqGHz})
			id++
		}
		srv.Sockets = append(srv.Sockets, sk)
	}
	if err := srv.Validate(); err != nil {
		panic(err)
	}
	return srv
}

// GB is 10^9 bytes (bandwidth contexts); GiB is 2^30 bytes (capacities).
const (
	GB  = 1e9
	GiB = int64(1) << 30
	MiB = int64(1) << 20
	KiB = int64(1) << 10
)

// DualBroadwell returns the paper's networking testbed: Dell PowerEdge
// R730 with two 14-core 2.0 GHz Xeon E5-2660 v4 (Broadwell) CPUs joined
// by two 9.6 GT/s QPI links, 4x16 GB DIMMs per socket (§5, "Experimental
// setup").
func DualBroadwell() *Server {
	return Build("dual-broadwell-r730",
		2, 14, 2.0,
		LLCSpec{
			Size:         35 * MiB, // 2.5 MB/core x 14
			DDIOFraction: 0.10,     // 2 of 20 ways
			HitLatency:   18 * time.Nanosecond,
		},
		DRAMSpec{
			Capacity:    64 * GiB, // 4x16 GB per socket
			BytesPerSec: 60 * GB,  // 4ch DDR4-2400, sustained
			Latency:     85 * time.Nanosecond,
		},
		InterconnectSpec{
			Name:               "QPI 9.6GT/s x2",
			LinksPerPair:       2,
			BytesPerSecPerLink: 19.2 * GB, // 9.6 GT/s x 2 B/T per direction
			BaseLatency:        60 * time.Nanosecond,
		})
}

// DualSkylake returns the paper's storage testbed: two 24-core Intel Xeon
// Platinum 8160 (Skylake) CPUs joined by two 10.4 GT/s UPI links, 6x8 GB
// DIMMs per socket (§5.4).
func DualSkylake() *Server {
	return Build("dual-skylake-8160",
		2, 24, 2.1,
		LLCSpec{
			Size:         33 * MiB,
			DDIOFraction: 0.10,
			HitLatency:   20 * time.Nanosecond,
		},
		DRAMSpec{
			Capacity:    48 * GiB, // 6x8 GB per socket
			BytesPerSec: 90 * GB,  // 6ch DDR4-2666, sustained
			Latency:     90 * time.Nanosecond,
		},
		InterconnectSpec{
			Name:               "UPI 10.4GT/s x2",
			LinksPerPair:       2,
			BytesPerSecPerLink: 20.8 * GB,
			BaseLatency:        70 * time.Nanosecond,
		})
}

// QuadSocket returns a four-socket server (fully connected interconnect),
// exercising the octoNIC's ability to scale past two PFs (§3.3 describes
// up to four, Figure 4).
func QuadSocket(coresPerSocket int) *Server {
	return Build("quad-socket", 4, coresPerSocket, 2.2,
		LLCSpec{Size: 33 * MiB, DDIOFraction: 0.10, HitLatency: 20 * time.Nanosecond},
		DRAMSpec{Capacity: 48 * GiB, BytesPerSec: 90 * GB, Latency: 90 * time.Nanosecond},
		InterconnectSpec{
			Name:               "UPI 10.4GT/s",
			LinksPerPair:       1,
			BytesPerSecPerLink: 20.8 * GB,
			BaseLatency:        70 * time.Nanosecond,
		})
}
