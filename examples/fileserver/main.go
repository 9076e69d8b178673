// Fileserver: the §3.3 corner case. A static-content server transmits
// straight from the page cache (sendfile) — and the page cache doesn't
// care about NUMA, so a single response's pages can span both sockets.
// No single PF can reach all of them locally; IOctoSG steers each DMA
// fragment through the PF local to its page.
package main

import (
	"fmt"
	"time"

	"ioctopus"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
)

// serve streams `files` cached across both sockets to the client and
// reports throughput plus how many bytes crossed the interconnect.
func serve(enableSG bool) (gbps, qpiGB float64) {
	cl := ioctopus.NewCluster(ioctopus.Config{Mode: ioctopus.ModeIOctopus, EnableSG: enableSG})
	defer cl.Drain()

	// The "page cache": file pages interleaved across both nodes, as a
	// first-touch-from-anywhere workload leaves them.
	var pages []*memsys.Buffer
	for i := 0; i < 8; i++ {
		pages = append(pages, cl.Server.Mem.NewBuffer(ioctopus.NodeID(i%2), 64*1024))
	}

	var received int64
	cl.Client.Stack.Listen(80, func(s *ioctopus.Socket) {
		s.SteerTo(0)
		cl.Client.Kernel.Spawn("wget", 1, func(th *ioctopus.Thread) {
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Server.Kernel.Spawn("httpd", 0, func(th *ioctopus.Thread) {
		sock, err := cl.Server.Stack.Dial(th, ioctopus.IPClient, 80, ioctopus.ProtoTCP)
		if err != nil {
			panic(err)
		}
		for {
			// Each response: two 32 KB page runs from different sockets.
			for i := 0; i+1 < len(pages); i += 2 {
				sock.SendFrags(th, []netstack.Frag{
					{Buf: pages[i], Bytes: 32 * 1024},
					{Buf: pages[i+1], Bytes: 32 * 1024},
				}, nil)
			}
		}
	})

	cl.Run(10 * time.Millisecond)
	base, baseQPI := received, cl.Server.Fabric.TotalBytes()
	window := 50 * time.Millisecond
	cl.Run(window)
	gbps = float64(received-base) * 8 / window.Seconds() / 1e9
	qpiGB = (cl.Server.Fabric.TotalBytes() - baseQPI) / 1e9
	return
}

func main() {
	fmt.Println("sendfile server, responses spanning both NUMA nodes (§3.3)")
	fmt.Println()
	g1, q1 := serve(false)
	fmt.Printf("  without IOctoSG: %5.1f Gb/s, %6.3f GB crossed the QPI\n", g1, q1)
	g2, q2 := serve(true)
	fmt.Printf("  with IOctoSG:    %5.1f Gb/s, %6.3f GB crossed the QPI\n", g2, q2)
	fmt.Println()
	fmt.Println("with fragment steering, every page is DMA-read by its local PF;")
	fmt.Println("the paper's prototype left IOctoSG unimplemented — this builds it")
}
