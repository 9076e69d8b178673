package experiments

import (
	"fmt"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/pcie"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

func init() {
	register("ablation-wiring", runAblationWiring)
	register("ablation-sg", runAblationSG)
	register("ablation-window", runAblationCoalescing)
}

// runAblationWiring compares the §3.2 wiring options for the octoNIC:
// bifurcation (x16 -> 2 x8, the prototype), extenders (full x16 to each
// socket) and a programmable PCIe switch (full width, extra hop).
func runAblationWiring(d Durations) *Result {
	r := &Result{ID: "ablation-wiring", Title: "octoNIC wiring options: bifurcated vs extender vs switch (§3.2)"}
	t := metrics.NewTable("wiring ablation",
		"wiring", "Rx Gb/s (1 core)", "Rx Gb/s (14 cores)", "RR mean us")
	type out struct{ one, many, rr float64 }
	wirings := []pcie.Wiring{pcie.WiringBifurcated, pcie.WiringExtender, pcie.WiringSwitch}
	rows := grid(len(wirings), 3, func(o, i int) float64 {
		switch i {
		case 0:
			return measureWired(wirings[o], 1, d)
		case 1:
			return measureWired(wirings[o], 14, d)
		default:
			return measureWiredRR(wirings[o], d)
		}
	})
	results := map[string]out{}
	for i, w := range wirings {
		run1, runN, rr := rows[i][0], rows[i][1], rows[i][2]
		results[w.String()] = out{run1, runN, rr}
		t.AddRow(w.String(), run1, runN, rr)
	}
	r.Tables = append(r.Tables, t)
	bif, ext, sw := results["bifurcated"], results["extender"], results["switch"]
	r.check("extender >= bifurcated at full load (more lanes)", ext.many/bif.many, 0.99, 2.0)
	r.checkTrue("switch adds latency over bifurcation",
		sw.rr > bif.rr, fmt.Sprintf("%.2f vs %.2f us", sw.rr, bif.rr))
	r.check("single-core throughput similar across wirings", ext.one/bif.one, 0.9, 1.2)
	return r
}

func measureWired(w pcie.Wiring, instances int, d Durations) float64 {
	cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus, Wiring: w})
	defer cl.Drain()
	var serverCores, clientCores []topology.CoreID
	clientPool := cl.Client.Topo.CoresOn(0)
	for i := 0; i < instances; i++ {
		serverCores = append(serverCores, cl.Server.Topo.CoresOn(topology.NodeID(i % 2))[i/2].ID)
		clientCores = append(clientCores, clientPool[i%len(clientPool)].ID)
	}
	wl := workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Rx,
		ServerCores: serverCores, ClientCores: clientCores,
		ServerIP: core.IPServerPF0,
	})
	cl.Run(d.Warmup)
	wl.MeasureStart()
	cl.Run(d.Measure)
	return metrics.Gbps(float64(wl.Bytes()), d.Measure)
}

func measureWiredRR(w pcie.Wiring, d Durations) float64 {
	cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus, Wiring: w, DisableCoalescing: true})
	defer cl.Drain()
	wl := workloads.StartRR(cl, workloads.RRConfig{
		MsgSize: 64, ServerCore: 0, ClientCore: 0, ServerIP: core.IPServerPF0,
	})
	cl.Run(d.Warmup)
	wl.MeasureStart()
	cl.Run(2 * d.Measure)
	return wl.Mean().Seconds() * 1e6
}

// runAblationSG exercises IOctoSG (§3.3), which the paper's prototype
// did not implement: transmitting sendfile-style segments whose
// fragments span both NUMA nodes. With SG each fragment is read through
// its local PF; without it the remote fragment crosses the
// interconnect.
func runAblationSG(d Durations) *Result {
	r := &Result{ID: "ablation-sg", Title: "IOctoSG: cross-node fragments with/without fragment steering (§3.3)"}
	t := metrics.NewTable("IOctoSG ablation",
		"config", "Gb/s", "QPI GB moved")
	run := func(sg bool) (gbps, qpiGB float64) {
		cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus, EnableSG: sg})
		defer cl.Drain()
		var received int64
		cl.Client.Stack.Listen(7, func(s *netstack.Socket) {
			s.SteerTo(0)
			cl.Client.Kernel.Spawn("sink", 1, func(th *kernel.Thread) {
				for {
					n, _, ok := s.Recv(th)
					if !ok {
						return
					}
					received += n
				}
			})
		})
		cl.Server.Kernel.Spawn("sendfile", 0, func(th *kernel.Thread) {
			sock, err := cl.Server.Stack.Dial(th, core.IPClient, 7, eth.ProtoTCP)
			if err != nil {
				panic(err)
			}
			// Page-cache pages interleaved across nodes (the corner
			// case of §3.3).
			page0 := cl.Server.Mem.NewBuffer(0, 32*1024)
			page1 := cl.Server.Mem.NewBuffer(1, 32*1024)
			for {
				sock.SendFrags(th, []netstack.Frag{
					{Buf: page0, Bytes: 32 * 1024},
					{Buf: page1, Bytes: 32 * 1024},
				}, nil)
			}
		})
		cl.Run(d.Warmup)
		qpi := openWindow(cl, patFabric)
		base := received
		cl.Run(d.Measure)
		gbps = metrics.Gbps(float64(received-base), d.Measure)
		qpiGB = qpi.delta() / 1e9
		return
	}
	type sgOut struct{ gbps, qpi float64 }
	outs := points(2, func(i int) sgOut {
		g, q := run(i == 0)
		return sgOut{g, q}
	})
	withSG, qpiWith := outs[0].gbps, outs[0].qpi
	withoutSG, qpiWithout := outs[1].gbps, outs[1].qpi
	t.AddRow("IOctoSG", withSG, qpiWith)
	t.AddRow("no SG", withoutSG, qpiWithout)
	r.Tables = append(r.Tables, t)
	r.checkTrue("SG removes interconnect crossings",
		qpiWith < qpiWithout*0.2,
		fmt.Sprintf("%.3f vs %.3f GB", qpiWith, qpiWithout))
	r.check("SG throughput on par or better", withSG/withoutSG, 0.95, 1.6)
	return r
}

// runAblationCoalescing quantifies the interrupt-moderation tradeoff
// the testbed toggles between throughput and latency runs.
func runAblationCoalescing(d Durations) *Result {
	r := &Result{ID: "ablation-window", Title: "interrupt coalescing: latency vs efficiency"}
	t := metrics.NewTable("coalescing ablation",
		"coalescing", "RR mean us", "Rx Gb/s")
	run := func(disable bool) (rrUs, gbps float64) {
		cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus, DisableCoalescing: disable})
		rr := workloads.StartRR(cl, workloads.RRConfig{
			MsgSize: 64, ServerCore: 0, ClientCore: 0, ServerIP: core.IPServerPF0,
		})
		cl.Run(d.Warmup)
		rr.MeasureStart()
		cl.Run(2 * d.Measure)
		rrUs = rr.Mean().Seconds() * 1e6
		cl.Drain()

		cl2 := core.NewCluster(core.Config{Mode: core.ModeIOctopus, DisableCoalescing: disable})
		defer cl2.Drain()
		st := workloads.StartStream(cl2, workloads.StreamConfig{
			MsgSize: 65536, Direction: workloads.Rx,
			ServerCores: []topology.CoreID{0}, ServerIP: core.IPServerPF0,
		})
		cl2.Run(d.Warmup)
		st.MeasureStart()
		cl2.Run(d.Measure)
		gbps = metrics.Gbps(float64(st.Bytes()), d.Measure)
		return
	}
	type coOut struct{ us, gbps float64 }
	outs := points(2, func(i int) coOut {
		us, g := run(i == 0)
		return coOut{us, g}
	})
	offUs, offGbps := outs[0].us, outs[0].gbps // coalescing disabled
	onUs, onGbps := outs[1].us, outs[1].gbps
	t.AddRow("disabled", offUs, offGbps)
	t.AddRow("enabled (8us)", onUs, onGbps)
	r.Tables = append(r.Tables, t)
	r.checkTrue("disabling coalescing lowers RR latency",
		offUs < onUs, fmt.Sprintf("%.2f vs %.2f us", offUs, onUs))
	r.check("stream throughput comparable either way", offGbps/onGbps, 0.8, 1.25)
	return r
}
