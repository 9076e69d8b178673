package experiments

import (
	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

var pktgenSizes = []int64{64, 128, 256, 512, 1024, 1500}

func init() { register("fig8", runFig8) }

// pktgenOut is one pktgen measurement.
type pktgenOut struct {
	MPPS    float64
	Gbps    float64
	MemGbps float64
}

// measurePktgen runs the in-kernel generator under a configuration.
func measurePktgen(c config, pktSize int64, d Durations) pktgenOut {
	cl := clusterFor(c, core.Config{})
	defer cl.Drain()
	var dev workloads.RawTxDevice
	var coreID topology.CoreID
	switch c {
	case cfgIOct:
		dev = cl.Octo
		coreID = cl.Server.Topo.CoresOn(0)[0].ID
	case cfgLocal:
		dev = cl.Dev0.(workloads.RawTxDevice)
		coreID = cl.Server.Topo.CoresOn(0)[0].ID
	default: // remote: PF0's netdev driven from socket 1
		dev = cl.Dev0.(workloads.RawTxDevice)
		coreID = cl.Server.Topo.CoresOn(1)[0].ID
	}
	w := workloads.StartPktgen(cl, dev, coreID, pktSize)
	cl.Run(d.Warmup)
	dram := openWindow(cl, patDRAM)
	w.MeasureStart()
	cl.Run(d.Measure)
	return pktgenOut{
		MPPS:    float64(w.Packets()) / d.Measure.Seconds() / 1e6,
		Gbps:    metrics.Gbps(float64(w.PayloadBytes()), d.Measure),
		MemGbps: metrics.Gbps(dram.delta(), d.Measure),
	}
}

// runFig8 reproduces Figure 8: single-core pktgen transmit throughput
// and memory bandwidth vs packet size. Per-packet NUDMA costs dominate:
// ioct/local sustains ~1.3x remote's packet rate, and remote's memory
// bandwidth tracks its throughput (payload DMA-read probes DRAM).
func runFig8(d Durations) *Result {
	r := &Result{ID: "fig8", Title: "single-core pktgen: throughput + memBW vs packet size (Fig 8)"}
	t := metrics.NewTable("Figure 8",
		"pkt", "ioct MPPS", "remote MPPS", "ioct Gb/s", "remote Gb/s", "ratio",
		"ioct memGb/s", "remote memGb/s")
	var at64, atMTU struct{ ioct, remote pktgenOut }
	cfgs := []config{cfgIOct, cfgRemote}
	rows := grid(len(pktgenSizes), len(cfgs), func(o, i int) pktgenOut {
		return measurePktgen(cfgs[i], pktgenSizes[o], d)
	})
	for i, size := range pktgenSizes {
		ioct, remote := rows[i][0], rows[i][1]
		t.AddRow(size, ioct.MPPS, remote.MPPS, ioct.Gbps, remote.Gbps,
			ratio(ioct.MPPS, remote.MPPS), ioct.MemGbps, remote.MemGbps)
		if size == 64 {
			at64.ioct, at64.remote = ioct, remote
		}
		if size == 1500 {
			atMTU.ioct, atMTU.remote = ioct, remote
		}
	}
	r.Tables = append(r.Tables, t)
	// Paper: 4.1 vs 3.08 MPPS (1.33x), annotations 1.30-1.39 across sizes.
	r.check("ioct/remote packet rate at 64B (paper ~1.33)", ratio(at64.ioct.MPPS, at64.remote.MPPS), 1.15, 1.6)
	r.check("ioct 64B rate MPPS (paper ~4.1)", at64.ioct.MPPS, 2.5, 6.0)
	r.check("remote memBW tracks its throughput at MTU (parallel probe)",
		ratio(atMTU.remote.MemGbps, atMTU.remote.Gbps), 0.7, 1.8)
	r.check("ioct memBW ~0 (all-LLC datapath)", ratio(atMTU.ioct.MemGbps, atMTU.ioct.Gbps), 0, 0.3)
	return r
}
