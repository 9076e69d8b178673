package experiments

import (
	"fmt"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/metrics"
	"ioctopus/internal/workloads"
)

func init() { register("ablation-remote-ddio", runAblationRemoteDDIO) }

// runAblationRemoteDDIO makes §2.4's measurement executable: remote
// DDIO "already partially works" when a response ring is allocated
// local to the device and remote to the CPU — the NIC's completion
// writes then land in its local LLC instead of the CPU's DRAM. The
// paper found this yields at most a ~2% improvement on pktgen, because
// the CPU's read of the entry still crosses the interconnect either
// way; IOctopus removes the crossing itself.
func runAblationRemoteDDIO(d Durations) *Result {
	r := &Result{ID: "ablation-remote-ddio", Title: "remote DDIO does not solve NUDMA (§2.4)"}

	run := func(ringsOnNICNode bool) float64 {
		cfg := core.Config{Mode: core.ModeStandard}
		if ringsOnNICNode {
			// Rings on the NIC's node 0; pktgen runs on node 1.
			cfg.DriverParams = driver.Params{RemoteDDIO: true}
		}
		cl := core.NewCluster(cfg)
		defer cl.Drain()
		coreID := cl.Server.Topo.CoresOn(1)[0].ID // remote to PF0
		w := workloads.StartPktgen(cl, cl.Dev0, coreID, 64)
		cl.Run(d.Warmup)
		w.MeasureStart()
		cl.Run(d.Measure)
		return float64(w.Packets()) / d.Measure.Seconds() / 1e6
	}

	type ddioOut struct {
		mpps float64
		pkt  pktgenOut
	}
	outs := points(3, func(i int) ddioOut {
		switch i {
		case 0: // rings CPU-local: completion writes go to DRAM
			return ddioOut{mpps: run(false)}
		case 1: // rings NIC-local: completion writes DDIO, CPU reads cross
			return ddioOut{mpps: run(true)}
		default:
			return ddioOut{pkt: measurePktgen(cfgIOct, 64, d)}
		}
	})
	baseline, remoteDDIO, ioct := outs[0].mpps, outs[1].mpps, outs[2].pkt

	t := metrics.NewTable("remote pktgen, 64B packets",
		"configuration", "MPPS", "vs baseline")
	t.AddRow("remote (rings CPU-local)", baseline, 1.0)
	t.AddRow("remote + response ring NIC-local (remote DDIO)", remoteDDIO, ratio(remoteDDIO, baseline))
	t.AddRow("ioctopus", ioct.MPPS, ratio(ioct.MPPS, baseline))
	r.Tables = append(r.Tables, t)

	// Paper: "a marginal performance improvement of up to 2%"; §2.4 also
	// predicts the downside — "cache line ping-pongs between nodes" —
	// which is what the model's residency migration produces. Either
	// way: remote DDIO does not meaningfully help.
	r.check("remote DDIO does not meaningfully help (paper <= ~2% gain)",
		ratio(remoteDDIO, baseline), 0.75, 1.10)
	r.checkTrue("IOctopus improvement is not",
		ioct.MPPS > baseline*1.15,
		fmt.Sprintf("%.2f vs %.2f MPPS", ioct.MPPS, baseline))
	return r
}
