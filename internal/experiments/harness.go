package experiments

import (
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

// startMigrationStream starts the single 64 KB netperf Rx stream the
// thread-migration experiments move around: netserver and netperf on
// core 0 of their hosts, on port 7. Its ServerThread(0) is the thread
// to migrate.
func startMigrationStream(cl *core.Cluster) *workloads.Stream {
	return workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Rx,
		ServerCores: []topology.CoreID{0}, ClientCores: []topology.CoreID{0},
		ServerIP: core.IPServerPF0, Port: 7,
	})
}

// The registry patterns the figure runners measure over a window.
const (
	patDRAM   = "server/mem/node*/dram_*_bytes"
	patBusy   = "server/kernel/core*/busy_seconds"
	patFabric = "server/fabric/*/*_bytes"
	patNICRx  = "server/nic/pf*/rx_bytes"
)

// window measures one registry pattern over a span of simulated time.
// Counters only grow, so a measurement is a delta: openWindow records
// the pattern's cl.Reg.Sum, and delta returns how far it has grown
// since.
type window struct {
	reg     *metrics.Registry
	pattern string
	base    float64
}

// openWindow starts a window over one of the runners' own patterns,
// which are well formed, so Sum returns no error.
func openWindow(cl *core.Cluster, pattern string) window {
	base, _, _ := cl.Reg.Sum(pattern)
	return window{reg: cl.Reg, pattern: pattern, base: base}
}

// delta returns the growth of the pattern's sum since the window opened.
func (w window) delta() float64 {
	now, _, _ := w.reg.Sum(w.pattern)
	return now - w.base
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
	dram, busy := openWindow(cl, patDRAM), openWindow(cl, patBusy)
	w.MeasureStart()
	cl.Run(d.Measure)
	return streamOut{
		Gbps:    metrics.Gbps(float64(w.Bytes()), d.Measure),
		MemGbps: metrics.Gbps(dram.delta(), d.Measure),
		CPU:     busy.delta() / d.Measure.Seconds(),
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
