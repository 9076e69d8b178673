package experiments

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
)

func init() { register("fig14", runFig14) }

// timeline runs the §5.3 migration experiment under one mode and
// returns the per-PF throughput series plus split throughput sums.
func timeline(mode core.NICMode, d Durations) (pf0, pf1 *metrics.Series, preRate, postRate float64) {
	cl := core.NewCluster(core.Config{Mode: mode})
	defer cl.Drain()
	st := startMigrationStream(cl)

	sampler := metrics.NewSampler(cl.Eng, d.SampleEvery)
	pf0 = sampler.TrackRate("pf0 Gb/s", func() float64 { return cl.Server.NIC.PF(0).RxBytes() * 8 / 1e9 })
	pf1 = sampler.TrackRate("pf1 Gb/s", func() float64 { return cl.Server.NIC.PF(1).RxBytes() * 8 / 1e9 })
	sampler.Start()

	migrateAt := time.Duration(float64(d.Timeline) * 0.45)
	rx := openWindow(cl, patNICRx)
	cl.Run(migrateAt)
	preRate = rx.delta() * 8 / migrateAt.Seconds() / 1e9
	rx = openWindow(cl, patNICRx)
	cl.Server.Kernel.SetAffinity(st.ServerThread(0), cl.Server.Topo.CoresOn(1)[0].ID)
	post := d.Timeline - migrateAt
	cl.Run(post)
	postRate = rx.delta() * 8 / post.Seconds() / 1e9
	return pf0, pf1, preRate, postRate
}

// runFig14 reproduces Figure 14: per-PF throughput while a netperf TCP
// Rx process migrates between sockets mid-run. The octoNIC steers
// traffic to the new socket's PF with no throughput loss; the standard
// firmware keeps serving through the original PF and throughput falls
// to the remote level.
func runFig14(d Durations) *Result {
	r := &Result{ID: "fig14", Title: "per-PF throughput across a thread migration (Fig 14)"}

	type tlOut struct {
		pf0, pf1  *metrics.Series
		pre, post float64
	}
	modes := []core.NICMode{core.ModeIOctopus, core.ModeStandard}
	outs := points(len(modes), func(i int) tlOut {
		var o tlOut
		o.pf0, o.pf1, o.pre, o.post = timeline(modes[i], d)
		return o
	})
	oPF0, oPF1, oPre, oPost := outs[0].pf0, outs[0].pf1, outs[0].pre, outs[0].post
	ePF0, ePF1, ePre, ePost := outs[1].pf0, outs[1].pf1, outs[1].pre, outs[1].post
	oPF0.Name, oPF1.Name = "octoNIC pf0 Gb/s", "octoNIC pf1 Gb/s"
	ePF0.Name, ePF1.Name = "ethNIC pf0 Gb/s", "ethNIC pf1 Gb/s"
	r.Series = append(r.Series, oPF0, oPF1, ePF0, ePF1)

	t := metrics.NewTable("Figure 14 summary",
		"mode", "pre-migration Gb/s", "post-migration Gb/s", "post/pre")
	t.AddRow("octoNIC", oPre, oPost, ratio(oPost, oPre))
	t.AddRow("ethNIC", ePre, ePost, ratio(ePost, ePre))
	r.Tables = append(r.Tables, t)

	// Post-migration the octoNIC's traffic must flow through PF1.
	lastOct1 := 0.0
	if oPF1.Len() > 0 {
		lastOct1 = oPF1.Values[oPF1.Len()-1]
	}
	lastEth1 := 0.0
	if ePF1.Len() > 0 {
		lastEth1 = ePF1.Values[ePF1.Len()-1]
	}
	r.checkTrue("octoNIC moves traffic to PF1 after migration",
		lastOct1 > oPost*0.5, fmt.Sprintf("final pf1 sample %.1f Gb/s", lastOct1))
	r.checkTrue("ethNIC never uses PF1", lastEth1 == 0, fmt.Sprintf("final pf1 sample %.1f", lastEth1))
	r.check("octoNIC post/pre throughput (no loss)", ratio(oPost, oPre), 0.9, 1.15)
	r.check("ethNIC post/pre throughput (drops to remote level)", ratio(ePost, ePre), 0.6, 0.93)
	return r
}
