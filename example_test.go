package ioctopus_test

import (
	"fmt"
	"time"

	"ioctopus"
)

// Example_nudma demonstrates the paper's core observation: the same
// single-core receive workload runs measurably slower — and floods DRAM
// — when its thread sits on the socket remote from the NIC's PCIe
// endpoint, and IOctopus removes the penalty.
func Example_nudma() {
	measure := func(mode ioctopus.NICMode, serverCore ioctopus.CoreID) (gbps float64, dramRatio float64) {
		cl := ioctopus.NewCluster(ioctopus.Config{Mode: mode})
		defer cl.Drain()
		var received int64
		cl.Server.Stack.Listen(7, func(s *ioctopus.Socket) {
			cl.Server.Kernel.Spawn("srv", serverCore, func(th *ioctopus.Thread) {
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
		cl.Client.Kernel.Spawn("cli", 0, func(th *ioctopus.Thread) {
			sock, err := cl.Client.Stack.Dial(th, ioctopus.IPServerPF0, 7, ioctopus.ProtoTCP)
			if err != nil {
				panic(err)
			}
			for {
				sock.Send(th, 64*1024)
			}
		})
		cl.Run(10 * time.Millisecond)
		base, baseMem := received, cl.Server.Mem.TotalDRAMBytes()
		window := 20 * time.Millisecond
		cl.Run(window)
		net := float64(received - base)
		return net * 8 / window.Seconds() / 1e9, (cl.Server.Mem.TotalDRAMBytes() - baseMem) / net
	}

	local, localMem := measure(ioctopus.ModeStandard, 0)
	remote, remoteMem := measure(ioctopus.ModeStandard, 14)
	octo, _ := measure(ioctopus.ModeIOctopus, 14)

	fmt.Printf("local beats remote: %v\n", local > remote*1.1)
	fmt.Printf("remote moves ~3x its throughput in DRAM: %v\n", remoteMem > 2.5 && remoteMem < 4)
	fmt.Printf("local DRAM is near zero (DDIO): %v\n", localMem < 0.2)
	fmt.Printf("ioctopus on the remote socket matches local: %v\n", octo > local*0.95)
	// Output:
	// local beats remote: true
	// remote moves ~3x its throughput in DRAM: true
	// local DRAM is near zero (DDIO): true
	// ioctopus on the remote socket matches local: true
}

// Example_experiments reproduces a paper figure programmatically.
func Example_experiments() {
	res, err := ioctopus.RunExperiment("fig2", ioctopus.QuickDurations())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ID, res.Passed())
	// Output:
	// fig2 true
}
