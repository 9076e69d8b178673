package experiments

import (
	"fmt"
	"strings"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// The kernel-bypass sweep is hidden: it is not part of the paper's
// artifact set (`-fig all` stays byte-identical to the NAPI-only
// harness) but runs by name — `ioctobench -fig pmd -quick` — and is
// pinned by the hidden_quick golden.
func init() { registerHidden("pmd", runPMD) }

// pmdSizes keeps the sweep affordable: busy-poll points simulate every
// empty poll as an event, so the figure sweeps three sizes, not six.
var pmdSizes = []int64{1024, 16384, 65536}

// pmdOut is one datapath measurement point.
type pmdOut struct {
	streamOut
	polls      float64
	emptyPolls float64
	bursts     float64
	occupancy  float64
}

// measurePMD runs a single-core TCP Rx stream on the standard firmware
// under one datapath, local (node 0, same socket as PF0) or remote
// (node 1), and collects the pmd/ counters across the server's drivers.
func measurePMD(dp core.Datapath, remote bool, msg int64, d Durations) pmdOut {
	cl := core.NewCluster(core.Config{Mode: core.ModeStandard, Datapath: dp})
	defer cl.Drain()
	node := topology.NodeID(0)
	if remote {
		node = 1
	}
	w := workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize:     msg,
		Direction:   workloads.Rx,
		ServerCores: []topology.CoreID{cl.Server.Topo.CoresOn(node)[0].ID},
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(d.Warmup)
	cl.ResetStats()
	w.MeasureStart()
	cl.Run(d.Measure)

	var busy time.Duration
	for i := 0; i < cl.Server.Kernel.NumCores(); i++ {
		busy += cl.Server.Kernel.Core(topology.CoreID(i)).BusyTime()
	}
	out := pmdOut{streamOut: streamOut{
		Gbps:    metrics.Gbps(float64(w.Bytes()), d.Measure),
		MemGbps: metrics.Gbps(cl.Server.Mem.TotalDRAMBytes(), d.Measure),
		CPU:     busy.Seconds() / d.Measure.Seconds(),
	}}
	// pmd/ counters are cumulative (ResetStats does not zero driver
	// counters), which is fine for the shape checks: nonzero is nonzero.
	var occSum, occN float64
	for _, s := range cl.Reg.Snapshot() {
		if !strings.HasPrefix(s.Name, "server/") || !strings.Contains(s.Name, "/pmd/") {
			continue
		}
		switch {
		case strings.HasSuffix(s.Name, "/polls"):
			out.polls += s.Value
		case strings.HasSuffix(s.Name, "/empty_polls"):
			out.emptyPolls += s.Value
		case strings.HasSuffix(s.Name, "/bursts"):
			out.bursts += s.Value
		case strings.HasSuffix(s.Name, "/burst_occupancy"):
			if s.Value > 0 {
				occSum += s.Value
				occN++
			}
		}
	}
	if occN > 0 {
		out.occupancy = occSum / occN
	}
	return out
}

// runPMD sweeps the three datapaths over placement and message size:
// single-core TCP Rx on the standard firmware, workload local to PF0 or
// on the remote socket. Busy polling trades dedicated spin cores
// (visible as CPU) for an IRQ-and-softirq-free delivery path; hybrid
// buys most of that without burning idle cores.
func runPMD(d Durations) *Result {
	r := &Result{ID: "pmd", Title: "kernel-bypass datapaths: interrupt vs busypoll vs hybrid (single-core TCP Rx)"}
	dps := []core.Datapath{core.DatapathInterrupt, core.DatapathBusyPoll, core.DatapathHybrid}
	places := []bool{false, true} // local, remote
	for _, remote := range places {
		place := "local"
		if remote {
			place = "remote"
		}
		t := metrics.NewTable("PMD sweep ("+place+")",
			"msg", "intr Gb/s", "busypoll Gb/s", "hybrid Gb/s",
			"intr cpu", "busypoll cpu", "hybrid cpu",
			"bp polls", "bp empty", "hy polls", "hy occupancy")
		rows := grid(len(pmdSizes), len(dps), func(o, i int) pmdOut {
			return measurePMD(dps[i], remote, pmdSizes[o], d)
		})
		var big [3]pmdOut
		for i, msg := range pmdSizes {
			intr, bp, hy := rows[i][0], rows[i][1], rows[i][2]
			t.AddRow(msg, intr.Gbps, bp.Gbps, hy.Gbps,
				intr.CPU, bp.CPU, hy.CPU,
				bp.polls, bp.emptyPolls, hy.polls, hy.occupancy)
			if msg == 65536 {
				big[0], big[1], big[2] = intr, bp, hy
			}
		}
		r.Tables = append(r.Tables, t)
		intr, bp, hy := big[0], big[1], big[2]
		r.check(place+": busypoll throughput vs interrupt at 64K",
			ratio(bp.Gbps, intr.Gbps), 0.9, 3.0)
		r.check(place+": hybrid throughput vs interrupt at 64K",
			ratio(hy.Gbps, intr.Gbps), 0.9, 2.5)
		r.checkTrue(place+": busypoll burns its dedicated poll cores",
			bp.CPU > intr.CPU+0.5, fmt.Sprintf("busypoll %.2f vs interrupt %.2f cores", bp.CPU, intr.CPU))
		r.checkTrue(place+": busypoll polls the rings",
			bp.polls > 0 && bp.bursts > 0, fmt.Sprintf("%.0f polls, %.0f bursts", bp.polls, bp.bursts))
		r.checkTrue(place+": hybrid polls only under load (fewer empty polls than busypoll)",
			hy.emptyPolls < bp.emptyPolls, fmt.Sprintf("hybrid %.0f vs busypoll %.0f empty", hy.emptyPolls, bp.emptyPolls))
		r.checkTrue(place+": interrupt path reports no pmd activity",
			intr.polls == 0, fmt.Sprintf("%.0f polls", intr.polls))
	}
	return r
}
