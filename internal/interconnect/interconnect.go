// Package interconnect models the CPU interconnect (QPI/UPI/HT): the
// directional socket-to-socket links that remote memory accesses, remote
// DMA, cross-socket MMIO and coherence traffic all traverse, and whose
// saturation is what Figures 11, 12 and 15 of the paper measure.
//
// Each ordered socket pair gets one sim.Pipe aggregating the parallel
// physical links of that direction. For more than two sockets the fabric
// is fully connected (matching the evaluated machines); a Route is then a
// single hop, but the API returns a path so partially connected
// topologies could be modelled.
package interconnect

import (
	"fmt"
	"sort"
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Fabric is the interconnect of one server.
type Fabric struct {
	spec  topology.InterconnectSpec
	nodes int
	pipes map[[2]topology.NodeID]*sim.Pipe
}

// New builds the fabric for the given server.
func New(e *sim.Engine, srv *topology.Server) *Fabric {
	f := &Fabric{
		spec:  srv.Interconnect,
		nodes: srv.NumNodes(),
		pipes: make(map[[2]topology.NodeID]*sim.Pipe),
	}
	for i := 0; i < f.nodes; i++ {
		for j := 0; j < f.nodes; j++ {
			if i == j {
				continue
			}
			key := [2]topology.NodeID{topology.NodeID(i), topology.NodeID(j)}
			f.pipes[key] = sim.NewPipe(e, sim.PipeConfig{
				Name:        fmt.Sprintf("%s %d->%d", f.spec.Name, i, j),
				BytesPerSec: f.spec.AggregateBandwidth(),
				BaseLatency: f.spec.BaseLatency,
				// The home agent keeps arbitrating bandwidth for DMA
				// bursts even under full CPU streaming load; Fig 15's
				// bounded fio degradation calibrates this share.
				MinDiscreteShare: 0.23,
			})
		}
	}
	return f
}

// Nodes returns the socket count.
func (f *Fabric) Nodes() int { return f.nodes }

// Pipe returns the directional pipe from one node to another.
func (f *Fabric) Pipe(from, to topology.NodeID) *sim.Pipe {
	if from == to {
		panic(fmt.Sprintf("interconnect: no pipe from node %d to itself", from))
	}
	p, ok := f.pipes[[2]topology.NodeID{from, to}]
	if !ok {
		panic(fmt.Sprintf("interconnect: no pipe %d->%d", from, to))
	}
	return p
}

// Charge accounts bytes crossing from -> to (no-op when from == to) and
// returns the latency that crossing currently costs. Contention appears
// as latency inflation on the underlying pipe rather than hard
// serialization, since many agents use the link concurrently.
func (f *Fabric) Charge(from, to topology.NodeID, bytes int64) time.Duration {
	if from == to {
		return 0
	}
	p := f.Pipe(from, to)
	lat := p.Latency(bytes)
	p.Charge(bytes)
	return lat
}

// Latency prices a crossing without charging it (e.g. the address phase
// of a read whose data phase is charged in the other direction).
func (f *Fabric) Latency(from, to topology.NodeID, bytes int64) time.Duration {
	if from == to {
		return 0
	}
	return f.Pipe(from, to).Latency(bytes)
}

// AddFlow registers a fluid flow (bulk traffic such as STREAM) in the
// from -> to direction and returns it for rate queries and removal.
func (f *Fabric) AddFlow(name string, from, to topology.NodeID, demand float64) *sim.FluidFlow {
	return f.Pipe(from, to).AddFlow(name, demand)
}

// Degrade scales one direction's bandwidth and base latency relative to
// the link's healthy values (fault injection: a flapping lane group, a
// misbehaving home agent). Degrade(from, to, 1, 1) restores the link
// exactly.
func (f *Fabric) Degrade(from, to topology.NodeID, bwFactor, latFactor float64) {
	f.Pipe(from, to).SetDegradation(bwFactor, latFactor)
}

// TotalBytes returns all bytes moved across the fabric in both kinds of
// traffic. Summation order is fixed by link key, not map order: float
// addition is not associative, so iteration order would otherwise leak
// into reported totals.
func (f *Fabric) TotalBytes() float64 {
	var sum float64
	for _, key := range f.sortedLinks() {
		sum += f.pipes[key].TotalBytes()
	}
	return sum
}

// sortedLinks returns the directional link keys in canonical
// (src, dst) order, the deterministic way to walk the pipes map.
func (f *Fabric) sortedLinks() [][2]topology.NodeID {
	keys := make([][2]topology.NodeID, 0, len(f.pipes))
	for key := range f.pipes {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}
