package workloads

import (
	"fmt"
	"math"

	"ioctopus/internal/core"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// AntagonistConfig configures STREAM memory-bandwidth antagonists
// (§5.2): pairs of single-core STREAM instances that target memory
// remote to their CPU, one reading and one writing, saturating the
// interconnect and polluting the LLC.
type AntagonistConfig struct {
	// Pairs of (reader, writer) instances.
	Pairs int
	// DemandPerInstance is one instance's memory demand in bytes/sec
	// (single-core STREAM on the testbed: ~8-11 GB/s).
	DemandPerInstance float64
}

// llcPollutionFactor scales how much of an instance's bandwidth
// allocates into its socket's LLC: every line.
const llcPollutionFactor float64 = 1

// DefaultAntagonistConfig returns testbed-calibrated settings.
func DefaultAntagonistConfig(pairs int) AntagonistConfig {
	return AntagonistConfig{Pairs: pairs, DemandPerInstance: 11e9}
}

// streamInstance is one running STREAM thread's resource registrations.
type streamInstance struct {
	fabricFlow *sim.FluidFlow
	memFlow    *sim.FluidFlow
}

func (si *streamInstance) bytes() float64 {
	return math.Min(si.fabricFlow.Bytes(), si.memFlow.Bytes())
}

// Antagonist is a running set of STREAM pairs on one host.
type Antagonist struct {
	host      *core.Host
	instances []*streamInstance
	baseline  float64
}

// StartAntagonist launches the STREAM pairs on the host. Pair i places
// its reader on node i%2 and its writer on the other node, each
// targeting remote memory, loading both interconnect directions and
// both memory controllers as the paper's co-location setup does.
func StartAntagonist(h *core.Host, cfg AntagonistConfig) *Antagonist {
	a := &Antagonist{host: h}
	nodes := h.Topo.NumNodes()
	for p := 0; p < cfg.Pairs; p++ {
		readerNode := topology.NodeID(p % nodes)
		writerNode := topology.NodeID((p + 1) % nodes)
		a.instances = append(a.instances,
			a.addInstance(fmt.Sprintf("stream-r%d", p), readerNode, other(readerNode, nodes), true, cfg),
			a.addInstance(fmt.Sprintf("stream-w%d", p), writerNode, other(writerNode, nodes), false, cfg),
		)
	}
	return a
}

func other(n topology.NodeID, nodes int) topology.NodeID {
	return topology.NodeID((int(n) + 1) % nodes)
}

// addInstance registers one STREAM thread on cpuNode targeting memory
// on memNode.
func (a *Antagonist) addInstance(name string, cpuNode, memNode topology.NodeID, read bool, cfg AntagonistConfig) *streamInstance {
	h := a.host
	si := &streamInstance{}
	if read {
		// Data flows memNode -> cpuNode.
		si.fabricFlow = h.Fabric.AddFlow(name, memNode, cpuNode, cfg.DemandPerInstance)
	} else {
		// Writes flow cpuNode -> memNode.
		si.fabricFlow = h.Fabric.AddFlow(name, cpuNode, memNode, cfg.DemandPerInstance)
	}
	si.memFlow = h.Mem.MemCtl(memNode).AddFlow(name, cfg.DemandPerInstance)
	h.Mem.AddLLCPressure(cpuNode, cfg.DemandPerInstance*llcPollutionFactor)
	return si
}

// MeasureStart marks the measurement window start.
func (a *Antagonist) MeasureStart() { a.baseline = a.Bytes() }

// Bytes returns aggregate bytes moved (absolute; subtract MeasureStart
// baseline via Window).
func (a *Antagonist) Bytes() float64 {
	var b float64
	for _, si := range a.instances {
		b += si.bytes()
	}
	return b
}

// WindowBytes returns bytes moved since MeasureStart.
func (a *Antagonist) WindowBytes() float64 { return a.Bytes() - a.baseline }
