package experiments

import (
	"fmt"

	"ioctopus/internal/metrics"
	"ioctopus/internal/workloads"
)

// streamSizes are the netperf buffer sizes swept in Figures 6 and 7.
var streamSizes = []int64{64, 256, 1024, 4096, 16384, 65536}

func init() {
	register("fig6", runFig6)
	register("fig7", runFig7)
	register("fig6-multicore", runFig6Multi)
}

// runFig6 reproduces Figure 6: single-core TCP stream receive —
// throughput, memory bandwidth and CPU utilization vs message size for
// ioct/local vs remote.
func runFig6(d Durations) *Result {
	r := &Result{ID: "fig6", Title: "single-core TCP Rx: throughput/memBW/CPU vs msg size (Fig 6)"}
	t := metrics.NewTable("Figure 6",
		"msg", "local Gb/s", "ioct Gb/s", "remote Gb/s", "ioct/remote",
		"local memGb/s", "remote memGb/s", "local cpu", "remote cpu")
	var big struct{ local, ioct, remote streamOut }
	cfgs := []config{cfgLocal, cfgIOct, cfgRemote}
	rows := grid(len(streamSizes), len(cfgs), func(o, i int) streamOut {
		return measureStream(cfgs[i], streamSizes[o], workloads.Rx, 1, 0, d)
	})
	for i, msg := range streamSizes {
		local, ioct, remote := rows[i][0], rows[i][1], rows[i][2]
		t.AddRow(msg, local.Gbps, ioct.Gbps, remote.Gbps, ratio(ioct.Gbps, remote.Gbps),
			local.MemGbps, remote.MemGbps, local.CPU, remote.CPU)
		if msg == 65536 {
			big.local, big.ioct, big.remote = local, ioct, remote
		}
	}
	r.Tables = append(r.Tables, t)
	// Paper: 1.25-1.26x at MTU-exceeding sizes; remote memBW ~ 3x net.
	r.check("ioct/remote throughput at 64K (paper ~1.26)", ratio(big.ioct.Gbps, big.remote.Gbps), 1.10, 1.45)
	r.check("ioct matches local", ratio(big.ioct.Gbps, big.local.Gbps), 0.90, 1.10)
	r.check("remote DRAM/net ratio at 64K (paper ~3)", ratio(big.remote.MemGbps, big.remote.Gbps), 2.2, 4.0)
	r.check("local DRAM/net ratio at 64K (DDIO, paper ~0)", ratio(big.local.MemGbps, big.local.Gbps), 0, 0.4)
	return r
}

// runFig7 reproduces Figure 7: single-core TCP transmit with TSO —
// both configurations comparable, remote memory bandwidth equal to its
// throughput (the parallel-probe DMA-read effect).
func runFig7(d Durations) *Result {
	r := &Result{ID: "fig7", Title: "single-core TCP Tx (TSO): throughput/memBW/CPU vs msg size (Fig 7)"}
	t := metrics.NewTable("Figure 7",
		"msg", "ioct Gb/s", "remote Gb/s", "ioct/remote",
		"ioct memGb/s", "remote memGb/s", "remote mem/net")
	var big struct{ ioct, remote streamOut }
	cfgs := []config{cfgIOct, cfgRemote}
	rows := grid(len(streamSizes), len(cfgs), func(o, i int) streamOut {
		return measureStream(cfgs[i], streamSizes[o], workloads.Tx, 1, 0, d)
	})
	for i, msg := range streamSizes {
		ioct, remote := rows[i][0], rows[i][1]
		t.AddRow(msg, ioct.Gbps, remote.Gbps, ratio(ioct.Gbps, remote.Gbps),
			ioct.MemGbps, remote.MemGbps, ratio(remote.MemGbps, remote.Gbps))
		if msg == 65536 {
			big.ioct, big.remote = ioct, remote
		}
	}
	r.Tables = append(r.Tables, t)
	r.check("Tx throughput parity (paper: comparable)", ratio(big.ioct.Gbps, big.remote.Gbps), 0.9, 1.25)
	r.check("remote Tx DRAM/net ratio (paper ~1, parallel probe)", ratio(big.remote.MemGbps, big.remote.Gbps), 0.6, 1.5)
	r.check("ioct Tx DRAM ~0 (DDIO reads from LLC)", ratio(big.ioct.MemGbps, big.ioct.Gbps), 0, 0.35)
	r.Notes = append(r.Notes, fmt.Sprintf("ioct Tx at 64K: %.1f Gb/s (paper ~47)", big.ioct.Gbps))
	return r
}

// runFig6Multi reproduces the multi-core paragraph of §5.1.1: with an
// instance per core the bottleneck moves to the wire and both
// configurations sustain line rate, but ioct/local now shows memory
// traffic (combined working set exceeds the LLC).
func runFig6Multi(d Durations) *Result {
	r := &Result{ID: "fig6-multicore", Title: "multi-core TCP Rx: both configs reach line rate (§5.1.1)"}
	t := metrics.NewTable("multi-core Rx (14 instances)",
		"config", "Gb/s", "memGb/s", "cpu")
	cfgs := []config{cfgIOct, cfgRemote}
	outs := points(len(cfgs), func(i int) streamOut {
		return measureStream(cfgs[i], 65536, workloads.Rx, 14, 0, d)
	})
	ioct, remote := outs[0], outs[1]
	t.AddRow("ioct/local", ioct.Gbps, ioct.MemGbps, ioct.CPU)
	t.AddRow("remote", remote.Gbps, remote.MemGbps, remote.CPU)
	r.Tables = append(r.Tables, t)
	r.check("both configs near wire limit", ratio(ioct.Gbps, remote.Gbps), 0.9, 1.6)
	r.checkTrue("ioct multi-core shows memory traffic (LLC exceeded)",
		ioct.MemGbps > 1, fmt.Sprintf("%.1f Gb/s DRAM", ioct.MemGbps))
	return r
}
