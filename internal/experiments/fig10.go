package experiments

import (
	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

func init() { register("fig10", runFig10) }

// mcOut is one memcached measurement.
type mcOut struct {
	KTps   float64 // thousand transactions/sec
	MemGBs float64 // server DRAM GB/s
}

// measureMemcached runs the §5.1.3 workload: one memcached server (on
// the config's socket), 14 memslap clients, 256 B keys / 512 KB values.
func measureMemcached(c config, setRatio float64, d Durations) mcOut {
	cl := clusterFor(c, core.Config{Seed: 11})
	defer cl.Drain()
	node := topology.NodeID(0)
	if c == cfgRemote {
		node = 1
	}
	cfg := workloads.DefaultMemcachedConfig(node, cl)
	cfg.SetRatio = setRatio
	w := workloads.StartMemcached(cl, cfg)
	warm := d.Warmup * 3 // large values need longer rampup
	cl.Run(warm)
	dram := openWindow(cl, patDRAM)
	w.MeasureStart()
	span := d.Measure * 4
	cl.Run(span)
	return mcOut{
		KTps:   float64(w.Transactions()) / span.Seconds() / 1e3,
		MemGBs: dram.delta() / span.Seconds() / 1e9,
	}
}

// runFig10 reproduces Figure 10: memcached throughput and server memory
// bandwidth as the SET ratio grows 0..100%. The ioct/local advantage
// grows with the SET ratio (SETs are Rx traffic, where NUDMA bites).
func runFig10(d Durations) *Result {
	r := &Result{ID: "fig10", Title: "memcached throughput + memBW vs SET ratio (Fig 10)"}
	t := metrics.NewTable("Figure 10",
		"SET%", "ioct KT/s", "remote KT/s", "ioct/remote", "ioct memGB/s", "remote memGB/s", "mem ratio")
	setPcts := []int{0, 25, 50, 75, 100}
	cfgs := []config{cfgIOct, cfgRemote}
	rows := grid(len(setPcts), len(cfgs), func(o, i int) mcOut {
		return measureMemcached(cfgs[i], float64(setPcts[o])/100, d)
	})
	ratios := make([]float64, 0, len(setPcts))
	for i, setPct := range setPcts {
		ioct, remote := rows[i][0], rows[i][1]
		t.AddRow(setPct, ioct.KTps, remote.KTps, ratio(ioct.KTps, remote.KTps),
			ioct.MemGBs, remote.MemGBs, ratio(ioct.MemGBs, remote.MemGBs))
		ratios = append(ratios, ratio(ioct.KTps, remote.KTps))
	}
	r.Tables = append(r.Tables, t)
	// Paper: advantage grows from ~1.10 to ~1.16 as SET% rises; ioct
	// uses less memory bandwidth (annotations 0.57-0.75).
	var meanSet float64
	for _, v := range ratios[1:] {
		meanSet += v
	}
	meanSet /= float64(len(ratios) - 1)
	r.check("mean advantage with SETs present (paper 1.10-1.16)", meanSet, 1.02, 1.40)
	// Slack covers quick-mode quantization: a window holds ~100
	// transactions per point, so one transaction moves a ratio by ~2%.
	r.checkTrue("advantage grows with SET ratio",
		ratios[len(ratios)-1] >= ratios[0]-0.05, "ratio at 100% >= ratio at 0%")
	return r
}
