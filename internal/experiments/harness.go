package experiments

import (
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// config names the three evaluated configurations of §5.
type config int

const (
	cfgLocal config = iota
	cfgRemote
	cfgIOct
)

func (c config) String() string {
	switch c {
	case cfgLocal:
		return "local"
	case cfgRemote:
		return "remote"
	default:
		return "ioct"
	}
}

// clusterFor builds the testbed for a configuration. Under local and
// remote the NIC runs the standard firmware and the workload uses the
// PF0 netdevice; the difference is which socket the workload (and its
// interrupts, via ARFS) runs on.
func clusterFor(c config, opts core.Config) *core.Cluster {
	if c == cfgIOct {
		opts.Mode = core.ModeIOctopus
	} else {
		opts.Mode = core.ModeStandard
	}
	return core.NewCluster(opts)
}

// serverCoreFor places the single-core workload: node 0 (PF0-local)
// for local and ioct, node 1 for remote.
func serverCoreFor(c config, cl *core.Cluster) topology.CoreID {
	if c == cfgRemote {
		return cl.Server.Topo.CoresOn(1)[0].ID
	}
	return cl.Server.Topo.CoresOn(0)[0].ID
}

// streamOut is one stream measurement.
type streamOut struct {
	Gbps    float64 // application throughput
	MemGbps float64 // server DRAM traffic
	CPU     float64 // server cores busy (in cores)
}

// measureStream runs a single- or multi-instance TCP_STREAM under a
// configuration, with optional STREAM antagonist pairs on the server.
func measureStream(c config, msg int64, dir workloads.Direction, instances int, pairs int, d Durations) streamOut {
	cl := clusterFor(c, core.Config{})
	defer cl.Drain()

	var serverCores, clientCores []topology.CoreID
	node := topology.NodeID(0)
	if c == cfgRemote {
		node = 1
	}
	clientPool := cl.Client.Topo.CoresOn(0)
	for i := 0; i < instances; i++ {
		serverCores = append(serverCores, cl.Server.Topo.CoresOn(node)[i].ID)
		clientCores = append(clientCores, clientPool[i%len(clientPool)].ID)
	}
	w := workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize:     msg,
		Direction:   dir,
		ServerCores: serverCores,
		ClientCores: clientCores,
		ServerIP:    core.IPServerPF0,
	})
	if pairs > 0 {
		workloads.StartAntagonist(cl.Server, workloads.DefaultAntagonistConfig(pairs))
	}
	cl.Run(d.Warmup)
	cl.ResetStats()
	w.MeasureStart()
	cl.Run(d.Measure)

	var busy time.Duration
	for i := 0; i < cl.Server.Kernel.NumCores(); i++ {
		busy += cl.Server.Kernel.Core(topology.CoreID(i)).BusyTime()
	}
	return streamOut{
		Gbps:    metrics.Gbps(float64(w.Bytes()), d.Measure),
		MemGbps: metrics.Gbps(cl.Server.Mem.TotalDRAMBytes(), d.Measure),
		CPU:     busy.Seconds() / d.Measure.Seconds(),
	}
}

// measureRR runs a request/response latency test. ddio=false models the
// llnd configuration (DDIO off in hardware on both machines).
func measureRR(c config, msg int64, proto uint8, ddio bool, pairs int, d Durations) *workloads.RR {
	cl := clusterFor(c, core.Config{DisableCoalescing: true, DisableDDIO: !ddio})
	defer cl.Drain()
	w := workloads.StartRR(cl, workloads.RRConfig{
		MsgSize:    msg,
		ServerCore: serverCoreFor(c, cl),
		ClientCore: 0,
		ServerIP:   core.IPServerPF0,
		Proto:      proto,
	})
	if pairs > 0 {
		workloads.StartAntagonist(cl.Server, workloads.DefaultAntagonistConfig(pairs))
	}
	cl.Run(d.Warmup)
	w.MeasureStart()
	// Latency runs need transaction counts, not bandwidth: use a longer
	// window so percentiles are stable.
	cl.Run(4 * d.Measure)
	return w
}

// ratio guards against division blowups in reporting.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
