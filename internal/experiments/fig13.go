package experiments

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

func init() { register("fig13", runFig13) }

// coLocOut is one co-location measurement.
type coLocOut struct {
	PRRuntime time.Duration
	IOKTps    float64 // memcached transactions (KT/s), when applicable
	IOGbps    float64 // netperf throughput, when applicable
}

// ioKind selects the co-located I/O workload.
type ioKind int

const (
	ioNetperf ioKind = iota
	ioMemcached
)

// measureCoLocation runs the Figure 13 setup: a 16-thread PageRank (8
// threads per socket) sharing the machine with an I/O workload on six
// cores of socket 1 — local to the octoNIC's PF1 under ioct, remote to
// PF0 under the standard firmware.
func measureCoLocation(c config, kind ioKind, d Durations) coLocOut {
	cl := clusterFor(c, core.Config{Seed: 5})
	defer cl.Drain()

	pr := workloads.StartPageRank(cl.Server, 8*d.Measure.Seconds()*workloads.PageRankDemandPerThread)

	// I/O threads on cores 22..27 (socket 1).
	var ioCores []topology.CoreID
	for i := 8; i < 14; i++ {
		ioCores = append(ioCores, cl.Server.Topo.CoresOn(1)[i].ID)
	}
	var out coLocOut
	window := time.Duration(float64(d.Measure) * 12)

	switch kind {
	case ioNetperf:
		clientCores := make([]topology.CoreID, len(ioCores))
		for i := range clientCores {
			clientCores[i] = topology.CoreID(i)
		}
		w := workloads.StartStream(cl, workloads.StreamConfig{
			MsgSize:     65536,
			Direction:   workloads.Rx,
			ServerCores: ioCores,
			ClientCores: clientCores,
			ServerIP:    core.IPServerPF0,
		})
		cl.Run(d.Warmup)
		w.MeasureStart()
		cl.Run(window)
		out.IOGbps = metrics.Gbps(float64(w.Bytes()), window)
	case ioMemcached:
		cfg := workloads.DefaultMemcachedConfig(1, cl)
		cfg.ServerCores = ioCores
		cfg.ClientCores = cfg.ClientCores[:6]
		cfg.SetRatio = 0.5
		w := workloads.StartMemcached(cl, cfg)
		cl.Run(d.Warmup)
		w.MeasureStart()
		cl.Run(window)
		out.IOKTps = float64(w.Transactions()) / window.Seconds() / 1e3
	}
	// Let PageRank finish if it has not.
	for i := 0; i < 40 && !pr.Done(); i++ {
		cl.Run(window / 4)
	}
	out.PRRuntime = pr.Runtime()
	return out
}

// runFig13 reproduces Figure 13: the effect of co-locating PageRank
// with memcached or netperf under ioct/local vs remote placement. The
// remote I/O workload's interconnect traffic slows PageRank (paper:
// +12% with netperf, +4% with memcached).
func runFig13(d Durations) *Result {
	r := &Result{ID: "fig13", Title: "PageRank co-located with memcached/netperf (Fig 13)"}
	t := metrics.NewTable("Figure 13",
		"io workload", "config", "PR time (ms)", "io throughput")

	kinds := []ioKind{ioNetperf, ioMemcached}
	cfgs := []config{cfgIOct, cfgRemote}
	rows := grid(len(kinds), len(cfgs), func(o, i int) coLocOut {
		return measureCoLocation(cfgs[i], kinds[o], d)
	})
	npIoct, npRemote := rows[0][0], rows[0][1]
	mcIoct, mcRemote := rows[1][0], rows[1][1]

	t.AddRow("netperf", "ioct/local", npIoct.PRRuntime.Seconds()*1e3, fmt.Sprintf("%.1f Gb/s", npIoct.IOGbps))
	t.AddRow("netperf", "remote", npRemote.PRRuntime.Seconds()*1e3, fmt.Sprintf("%.1f Gb/s", npRemote.IOGbps))
	t.AddRow("memcached", "ioct/local", mcIoct.PRRuntime.Seconds()*1e3, fmt.Sprintf("%.1f KT/s", mcIoct.IOKTps))
	t.AddRow("memcached", "remote", mcRemote.PRRuntime.Seconds()*1e3, fmt.Sprintf("%.1f KT/s", mcRemote.IOKTps))
	r.Tables = append(r.Tables, t)

	// Paper: PR 12% slower with remote netperf, 4% with remote memcached.
	r.check("PR slowdown from remote netperf (paper ~1.12)",
		ratio(npRemote.PRRuntime.Seconds(), npIoct.PRRuntime.Seconds()), 1.02, 1.45)
	r.check("PR slowdown from remote memcached (paper ~1.04)",
		ratio(mcRemote.PRRuntime.Seconds(), mcIoct.PRRuntime.Seconds()), 0.99, 1.25)
	r.check("netperf throughput comparable in both configs (paper)",
		ratio(npIoct.IOGbps, npRemote.IOGbps), 0.95, 2.2)
	r.checkTrue("memcached suffers when remote",
		mcIoct.IOKTps >= mcRemote.IOKTps*0.98,
		fmt.Sprintf("%.1f vs %.1f KT/s", mcIoct.IOKTps, mcRemote.IOKTps))
	return r
}
