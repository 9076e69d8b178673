// Keyvalue: the §5.1.3 scenario — a memcached-style store serving 512 KB
// values to 14 clients, comparing placements. With the octoNIC the
// operator can put the server's workers on either socket (or both)
// without thinking about which socket the NIC hangs off.
package main

import (
	"fmt"
	"time"

	"ioctopus"
)

func measure(mode ioctopus.NICMode, serverNode ioctopus.NodeID, setRatio float64) (ktps, memGBs float64) {
	cl := ioctopus.NewCluster(ioctopus.Config{Mode: mode, Seed: 42})
	defer cl.Drain()

	cfg := ioctopusMemcachedConfig(cl, serverNode)
	cfg.SetRatio = setRatio
	w := ioctopus.StartMemcached(cl, cfg)

	cl.Run(30 * time.Millisecond) // warmup
	baseMem := cl.Server.Mem.TotalDRAMBytes()
	w.MeasureStart()
	window := 100 * time.Millisecond
	cl.Run(window)
	ktps = float64(w.Transactions()) / window.Seconds() / 1e3
	memGBs = (cl.Server.Mem.TotalDRAMBytes() - baseMem) / window.Seconds() / 1e9
	return
}

// ioctopusMemcachedConfig builds the paper's workload: 14 memslap
// clients, 256 B keys, 512 KB values, workers on one socket.
func ioctopusMemcachedConfig(cl *ioctopus.Cluster, node ioctopus.NodeID) ioctopus.MemcachedConfig {
	var serverCores, clientCores []ioctopus.CoreID
	for _, c := range cl.Server.Topo.CoresOn(node) {
		serverCores = append(serverCores, c.ID)
	}
	for _, c := range cl.Client.Topo.CoresOn(0) {
		clientCores = append(clientCores, c.ID)
	}
	return ioctopus.MemcachedConfig{
		ServerCores: serverCores,
		ClientCores: clientCores,
		KeySize:     256,
		ValueSize:   512 * 1024,
		ServerIP:    ioctopus.IPServerPF0,
		Port:        11211,
		OpCost:      900 * time.Microsecond,
		Pipeline:    1,
	}
}

func main() {
	fmt.Println("memcached, 256 B keys / 512 KB values, 14 memslap clients (paper Fig 10)")
	fmt.Println()
	for _, set := range []float64{0, 0.5, 1.0} {
		// remote: standard firmware, workers on socket 1, NIC PF0 on
		// socket 0 — every SET's value crosses QPI.
		rk, rm := measure(ioctopus.ModeStandard, 1, set)
		// ioct: same worker placement, octoNIC — all DMA local.
		ik, im := measure(ioctopus.ModeIOctopus, 1, set)
		fmt.Printf("SET %3.0f%%:  remote %5.1f KT/s (DRAM %4.1f GB/s)   ioct %5.1f KT/s (DRAM %4.1f GB/s)   speedup %.2fx\n",
			set*100, rk, rm, ik, im, ik/rk)
	}
	fmt.Println()
	fmt.Println("the IOctopus advantage grows with the SET ratio: SETs are receive traffic,")
	fmt.Println("where remote DMA costs DRAM round trips and cache invalidations")
}
