// Quickstart: build the paper's testbed, run a single-core netperf-style
// TCP receive under all three configurations of §5 — local, remote, and
// IOctopus — and watch NUDMA appear and disappear.
package main

import (
	"fmt"
	"time"

	"ioctopus"
)

// receive runs a one-way client->server stream for `window` with the
// server app pinned to serverCore, returning throughput and the
// server's DRAM traffic in Gb/s.
func receive(mode ioctopus.NICMode, serverCore ioctopus.CoreID, window time.Duration) (gbps, memGbps float64) {
	cl := ioctopus.NewCluster(ioctopus.Config{Mode: mode})
	defer cl.Drain()

	var received int64
	cl.Server.Stack.Listen(7, func(s *ioctopus.Socket) {
		cl.Server.Kernel.Spawn("netserver", serverCore, func(th *ioctopus.Thread) {
			s.SetOwner(th) // steers the flow (ARFS / IOctoRFS) to this core
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("netperf", 0, func(th *ioctopus.Thread) {
		sock, err := cl.Client.Stack.Dial(th, ioctopus.IPServerPF0, 7, ioctopus.ProtoTCP)
		if err != nil {
			panic(err)
		}
		for {
			sock.Send(th, 64*1024)
		}
	})

	cl.Run(10 * time.Millisecond) // warmup
	base, baseMem := received, cl.Server.Mem.TotalDRAMBytes()
	cl.Run(window)
	gbps = float64(received-base) * 8 / window.Seconds() / 1e9
	memGbps = (cl.Server.Mem.TotalDRAMBytes() - baseMem) * 8 / window.Seconds() / 1e9
	return
}

func main() {
	const window = 50 * time.Millisecond

	fmt.Println("single-core TCP receive, 64 KB messages (paper Fig 6, 64K column)")
	fmt.Println()

	// Standard firmware, app on the NIC-local socket: the best case.
	local, localMem := receive(ioctopus.ModeStandard, 0, window)
	fmt.Printf("  local  (std fw, app on socket 0): %5.1f Gb/s, DRAM %5.1f Gb/s\n", local, localMem)

	// Standard firmware, app on the other socket: NUDMA on every byte.
	remote, remoteMem := receive(ioctopus.ModeStandard, 14, window)
	fmt.Printf("  remote (std fw, app on socket 1): %5.1f Gb/s, DRAM %5.1f Gb/s\n", remote, remoteMem)

	// IOctopus firmware: the same remote placement, but IOctoRFS steers
	// the flow to the PF local to the app — NUDMA is gone.
	octo, octoMem := receive(ioctopus.ModeIOctopus, 14, window)
	fmt.Printf("  ioct   (octo fw, app on socket 1): %5.1f Gb/s, DRAM %5.1f Gb/s\n", octo, octoMem)

	fmt.Println()
	fmt.Printf("NUDMA cost: %.2fx throughput, %.1fx memory traffic\n", local/remote, remoteMem/(localMem+0.01))
	fmt.Printf("IOctopus recovers %.0f%% of the local configuration's throughput on the remote socket\n",
		100*octo/local)
}
