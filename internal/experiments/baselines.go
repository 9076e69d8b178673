package experiments

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/pcie"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

func init() {
	register("baseline-bond", runBaselineBond)
	register("baseline-quad", runBaselineQuad)
}

// runBaselineBond demonstrates §2.5: bonding two per-socket NICs does
// not eliminate NUDMA, because neither the bond (egress: flow-hash) nor
// the switch (ingress: LAG hash) can steer a flow to the socket where
// its thread runs. The octoNIC, with identical physical resources,
// keeps every byte local.
func runBaselineBond(d Durations) *Result {
	r := &Result{ID: "baseline-bond", Title: "two NICs + bonding vs octoNIC (§2.5 baseline)"}
	t := metrics.NewTable("bond baseline: single-core Rx, thread on socket 1",
		"setup", "Gb/s", "server DRAM Gb/s")

	// The bond's inbound member is the switch's flow-hash choice: for a
	// thread on socket 1 there is a 50% chance the flow lands on the
	// remote NIC and nothing the host can do about it. We measure the
	// unlucky (hash->NIC0) case, which our deterministic tuple gives.
	type bondOut struct {
		bondGbps, bondMem float64
		octo              streamOut
	}
	outs := points(2, func(i int) bondOut {
		var o bondOut
		if i == 0 {
			o.bondGbps, o.bondMem = measureBondRx(d)
		} else {
			o.octo = measureStream(cfgIOct, 65536, workloads.Rx, 1, 0, d)
		}
		return o
	})
	bondGbps, bondMem := outs[0].bondGbps, outs[0].bondMem
	octo := outs[1].octo
	t.AddRow("2xNIC+bond (flow hashed to remote NIC)", bondGbps, bondMem)
	t.AddRow("octoNIC", octo.Gbps, octo.MemGbps)
	r.Tables = append(r.Tables, t)
	r.checkTrue("bond cannot avoid NUDMA for an unluckily hashed flow",
		bondGbps < octo.Gbps*0.93,
		fmt.Sprintf("bond %.1f vs octo %.1f Gb/s", bondGbps, octo.Gbps))
	r.checkTrue("bonded remote flow pays DRAM traffic",
		bondMem > bondGbps, fmt.Sprintf("%.1f Gb/s DRAM", bondMem))
	r.Notes = append(r.Notes,
		"same silicon budget as the octoNIC (one x8 endpoint per socket), but decomposed into two logical NICs")
	return r
}

// measureBondRx runs a single-core Rx stream over the bonded two-NIC
// server with the app on socket 1 and the flow hashed (by the switch's
// LAG policy) to the socket-0 NIC: the §2.5 worst case.
func measureBondRx(d Durations) (gbps, memGbps float64) {
	cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
	defer cl.Drain()
	srv := cl.Server
	eng := cl.Eng

	// Build two per-socket NICs wired via a LAG-capable switch.
	mk := func(name string, node topology.NodeID) *nic.NIC {
		eps := srv.PCIe.AttachCard(pcie.CardConfig{
			Name: name, Gen: pcie.Gen3, TotalLanes: 8,
			Wiring: pcie.WiringDirect, Nodes: []topology.NodeID{node},
		})
		n := nic.New(eng, name, eps, nic.DefaultCoalesceDelay)
		n.LoadFirmware(nic.NewStandardFirmware(n))
		return n
	}
	n0, n1 := mk("sep0", 0), mk("sep1", 1)
	sw := eth.NewSwitch(eng, 500*time.Nanosecond)
	n0.AttachWire(sw.ConnectWire("s0", n0))
	n1.AttachWire(sw.ConnectWire("s1", n1))
	sw.AggregateLinks(1, []int{0, 1})
	// Client NIC joins the same switch on a fresh wire.
	clientNIC := cl.Client.NIC
	clientNIC.AttachWire(sw.ConnectWire("c", clientNIC))

	// Drivers + bond on the server.
	d0 := driver.NewStandard(srv.Kernel, srv.Mem, n0.PF(0), "sep-eth0", driver.Params{}, driver.DatapathInterrupt)
	d1 := driver.NewStandard(srv.Kernel, srv.Mem, n1.PF(0), "sep-eth1", driver.Params{}, driver.DatapathInterrupt)
	d0.Bind(srv.Stack)
	d1.Bind(srv.Stack)
	bond := driver.NewBond("bond0", d0, d1)
	srv.Stack.AddDevice(bond, 0x0A0000B0)

	var received int64
	srv.Stack.Listen(7, func(s *netstack.Socket) {
		srv.Kernel.Spawn("netserver", srv.Topo.CoresOn(1)[0].ID, func(th *kernel.Thread) {
			s.SetOwner(th) // the bond's best effort: ARFS within the hashed member
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *kernel.Thread) {
		// Dial until the flow's hash lands on LAG member 0 (the
		// socket-0 NIC) while the app lives on socket 1: the case the
		// host cannot repair.
		for {
			sock, err := cl.Client.Stack.Dial(th, 0x0A0000B0, 7, eth.ProtoTCP)
			if err != nil {
				panic(err)
			}
			if int(sock.Flow().Hash())%2 == 0 {
				for {
					sock.Send(th, 65536)
				}
			}
			sock.Close()
		}
	})
	cl.Run(d.Warmup)
	dram := openWindow(cl, patDRAM)
	base := received
	cl.Run(d.Measure)
	gbps = metrics.Gbps(float64(received-base), d.Measure)
	memGbps = metrics.Gbps(dram.delta(), d.Measure)
	return
}

// runBaselineQuad scales the octoNIC to four sockets (Figure 4 shows
// four limbs): a thread hops across all four sockets and the traffic
// follows it through four PFs with no loss anywhere.
func runBaselineQuad(d Durations) *Result {
	r := &Result{ID: "baseline-quad", Title: "four-socket octoNIC: steering across 4 PFs (§3.3, Fig 4)"}
	cl := core.NewCluster(core.Config{
		Mode:       core.ModeIOctopus,
		ServerTopo: topology.QuadSocket(8),
	})
	defer cl.Drain()
	st := startMigrationStream(cl)

	t := metrics.NewTable("quad-socket migration", "phase", "Gb/s", "serving PF")
	phase := func(label string) (gbps float64, pf int) {
		rx := openWindow(cl, patNICRx)
		pfRx := make([]window, 4)
		for i := range pfRx {
			pfRx[i] = openWindow(cl, fmt.Sprintf("server/nic/pf%d/rx_bytes", i))
		}
		cl.Run(d.Measure)
		best, bestDelta := 0, 0.0
		for i, w := range pfRx {
			if delta := w.delta(); delta > bestDelta {
				best, bestDelta = i, delta
			}
		}
		gbps = rx.delta() * 8 / d.Measure.Seconds() / 1e9
		t.AddRow(label, gbps, best)
		return gbps, best
	}

	cl.Run(d.Warmup)
	var rates []float64
	var pfs []int
	for node := 0; node < 4; node++ {
		if node > 0 {
			cl.Server.Kernel.SetAffinity(st.ServerThread(0), cl.Server.Topo.CoresOn(topology.NodeID(node))[0].ID)
		}
		g, pf := phase(fmt.Sprintf("thread on socket %d", node))
		rates = append(rates, g)
		pfs = append(pfs, pf)
	}
	r.Tables = append(r.Tables, t)

	followed := true
	for node, pf := range pfs {
		if pf != node {
			followed = false
		}
	}
	r.checkTrue("traffic follows the thread across all four PFs", followed,
		fmt.Sprintf("serving PFs per phase: %v", pfs))
	lo, hi := rates[0], rates[0]
	for _, g := range rates {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	r.check("throughput steady across migrations", lo/hi, 0.85, 1.0)
	return r
}
