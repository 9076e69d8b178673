package experiments

import (
	"fmt"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
)

func init() { register("ablation-scheduler", runAblationScheduler) }

// runAblationScheduler makes §3.4's promise executable: "achieving
// locality would allow the OS scheduler to disregard NUDMA
// considerations in its scheduling decisions." A NUDMA-oblivious load
// balancer bounces a busy network thread between sockets every few
// milliseconds. Under the standard firmware every stint on the remote
// socket costs throughput; under IOctopus the balancer is free.
func runAblationScheduler(d Durations) *Result {
	r := &Result{ID: "ablation-scheduler", Title: "NUDMA-oblivious load balancing (§3.4)"}
	t := metrics.NewTable("oblivious balancer, migration every 4 measurement slices",
		"mode", "pinned Gb/s", "balanced Gb/s", "balanced/pinned")

	measure := func(mode core.NICMode, balance bool) float64 {
		cl := core.NewCluster(core.Config{Mode: mode})
		defer cl.Drain()
		var received int64
		var serverThread *kernel.Thread
		cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
			serverThread = cl.Server.Kernel.Spawn("netserver", 0, func(th *kernel.Thread) {
				s.SetOwner(th)
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
			sock, err := cl.Client.Stack.Dial(th, core.IPServerPF0, 7, eth.ProtoTCP)
			if err != nil {
				panic(err)
			}
			for {
				sock.Send(th, 65536)
			}
		})
		if balance {
			// The oblivious balancer: alternate sockets on a fixed tick,
			// as a fairness-driven scheduler with no NUDMA model would.
			tick := d.Measure
			node := 0
			var rebalance func()
			rebalance = func() {
				if serverThread == nil {
					cl.Eng.After(tick, rebalance)
					return
				}
				node = 1 - node
				cl.Server.Kernel.SetAffinity(serverThread,
					cl.Server.Topo.CoresOn(topology.NodeID(node))[0].ID)
				cl.Eng.After(tick, rebalance)
			}
			cl.Eng.After(tick, rebalance)
		}
		cl.Run(d.Warmup)
		base := received
		window := 8 * d.Measure // several balancer periods
		cl.Run(window)
		return metrics.Gbps(float64(received-base), window)
	}

	modes := []core.NICMode{core.ModeStandard, core.ModeIOctopus}
	rows := grid(len(modes), 2, func(o, i int) float64 {
		return measure(modes[o], i == 1)
	})
	stdPinned, stdBalanced := rows[0][0], rows[0][1]
	octoPinned, octoBalanced := rows[1][0], rows[1][1]
	t.AddRow("standard", stdPinned, stdBalanced, ratio(stdBalanced, stdPinned))
	t.AddRow("ioctopus", octoPinned, octoBalanced, ratio(octoBalanced, octoPinned))
	r.Tables = append(r.Tables, t)

	r.check("standard firmware pays for oblivious balancing",
		ratio(stdBalanced, stdPinned), 0.70, 0.97)
	r.check("IOctopus makes the balancer free",
		ratio(octoBalanced, octoPinned), 0.95, 1.02)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"balancer migrates every %v; the standard NIC spends half its time remote", d.Measure))
	return r
}
