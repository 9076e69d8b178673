package experiments

import (
	"fmt"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/nvme"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

func init() {
	register("fig15", runFig15)
	register("fig15-octossd", runFig15OctoSSD)
}

// fioCores are the fio threads' cores: socket 0, remote from the SSDs.
func fig15Cores() []topology.CoreID {
	return []topology.CoreID{0, 1, 2, 3, 4, 5, 6, 7}
}

// measureFig15 runs fio (and optionally STREAM antagonists) on the
// Skylake storage rig, returning absolute rates in GB/s.
func measureFig15(streams int, withFio bool, policy nvme.Policy, dualPort bool, d Durations) (fioGBs, streamGBs float64) {
	rig := core.NewStorageRig(policy, dualPort)
	defer rig.Drain()
	var f *workloads.Fio
	if withFio {
		f = workloads.StartFio(rig, fig15Cores())
	}
	var ant *workloads.Antagonist
	if streams > 0 {
		ant = workloads.StartAntagonistOn(rig.Host, streams, 1, 0,
			workloads.AntagonistConfig{DemandPerInstance: 10e9})
	}
	rig.Run(d.Warmup * 10) // flash latencies need a longer rampup
	if f != nil {
		f.MeasureStart()
	}
	if ant != nil {
		ant.MeasureStart()
	}
	window := d.Measure * 5
	rig.Run(window)
	if f != nil {
		fioGBs = metrics.GBs(float64(f.Bytes()), window)
	}
	if ant != nil {
		streamGBs = ant.WindowBytes() / window.Seconds() / 1e9
	}
	return
}

// runFig15 reproduces Figure 15: four NVMe drives read by fio from the
// remote socket while STREAM instances saturate the UPI. Throughputs
// are normalized to each workload's antagonist-free run; fio degrades
// by up to ~24% once the interconnect saturates.
func runFig15(d Durations) *Result {
	r := &Result{ID: "fig15", Title: "NVMe fio vs STREAM interconnect contention (Fig 15)"}
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	type f15Out struct{ fio, stream float64 }
	// Point 0 is the antagonist-free fio baseline; then per STREAM count
	// a solo-STREAM run and a contended run.
	outs := points(1+2*len(counts), func(i int) f15Out {
		var o f15Out
		switch {
		case i == 0:
			o.fio, _ = measureFig15(0, true, nvme.SinglePath, false, d)
		case i <= len(counts): // solo STREAM
			_, o.stream = measureFig15(counts[i-1], false, nvme.SinglePath, false, d)
		default: // fio + STREAM contention
			o.fio, o.stream = measureFig15(counts[i-1-len(counts)], true, nvme.SinglePath, false, d)
		}
		return o
	})
	fioSolo := outs[0].fio
	t := metrics.NewTable("Figure 15 (normalized)",
		"STREAMs", "fio GB/s", "fio norm", "STREAM GB/s", "STREAM norm")
	var fioNormAt2, fioNormAt10 float64
	for i, n := range counts {
		streamSolo := outs[1+i].stream
		fio, stream := outs[1+len(counts)+i].fio, outs[1+len(counts)+i].stream
		fioNorm := ratio(fio, fioSolo)
		t.AddRow(n, fio, fioNorm, stream, ratio(stream, streamSolo))
		if n == 2 {
			fioNormAt2 = fioNorm
		}
		if n == 10 {
			fioNormAt10 = fioNorm
		}
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, fmt.Sprintf("fio solo: %.2f GB/s (4 x PM1725a-like drives)", fioSolo))
	// Paper: fio unaffected at low STREAM counts, degrades up to ~24%.
	r.check("fio unaffected by light STREAM load", fioNormAt2, 0.95, 1.05)
	r.check("fio degradation under UPI saturation (paper ~0.76)", fioNormAt10, 0.6, 0.9)
	return r
}

// runFig15OctoSSD runs the paper's future-work extension built here:
// dual-port drives with IOctopus-style local-port routing eliminate the
// degradation entirely.
func runFig15OctoSSD(d Durations) *Result {
	r := &Result{ID: "fig15-octossd", Title: "OctoSSD: dual-port local routing removes NVMe NUDMA (§5.4 extension)"}
	t := metrics.NewTable("OctoSSD under 10 STREAM instances",
		"policy", "fio GB/s", "normalized to solo")
	type job struct {
		streams int
		policy  nvme.Policy
	}
	jobs := []job{
		{0, nvme.SinglePath}, {0, nvme.OctoSSD},
		{10, nvme.SinglePath}, {10, nvme.OctoSSD},
	}
	outs := points(len(jobs), func(i int) float64 {
		fio, _ := measureFig15(jobs[i].streams, true, jobs[i].policy, true, d)
		return fio
	})
	soloSingle, soloOcto, heavySingle, heavyOcto := outs[0], outs[1], outs[2], outs[3]
	t.AddRow("single-path", heavySingle, ratio(heavySingle, soloSingle))
	t.AddRow("octossd", heavyOcto, ratio(heavyOcto, soloOcto))
	r.Tables = append(r.Tables, t)
	r.check("single-path degrades", ratio(heavySingle, soloSingle), 0.6, 0.9)
	r.check("OctoSSD does not", ratio(heavyOcto, soloOcto), 0.93, 1.05)
	return r
}
