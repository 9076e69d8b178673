// Storage: the §5.4 scenario — four NVMe drives read by fio threads on
// the remote socket while STREAM saturates the UPI, and the OctoSSD
// extension (IOctopus principles applied to dual-port drives) that
// removes the degradation.
package main

import (
	"fmt"
	"time"

	"ioctopus"
	"ioctopus/internal/nvme"
)

func measure(policy nvme.Policy, dualPort bool, streams int) float64 {
	rig := ioctopus.NewStorageRig(policy, dualPort)
	defer rig.Drain()

	cores := []ioctopus.CoreID{0, 1, 2, 3, 4, 5, 6, 7} // socket 0, remote from SSDs
	f := ioctopus.StartFio(rig, cores)
	if streams > 0 {
		ioctopus.StartAntagonistOn(rig.Host, streams, 1, 0,
			ioctopus.AntagonistConfig{DemandPerInstance: 10e9})
	}
	rig.Run(100 * time.Millisecond)
	f.MeasureStart()
	window := 100 * time.Millisecond
	rig.Run(window)
	return float64(f.Bytes()) / window.Seconds() / 1e9
}

func main() {
	fmt.Println("fio: 8 threads x QD32 x 128 KB reads over 4 NVMe drives,")
	fmt.Println("drives on socket 1, fio on socket 0 (paper Fig 15)")
	fmt.Println()

	solo := measure(nvme.SinglePath, false, 0)
	fmt.Printf("  no antagonist:          %5.2f GB/s\n", solo)
	for _, n := range []int{4, 8, 10} {
		got := measure(nvme.SinglePath, false, n)
		fmt.Printf("  %2d STREAM instances:    %5.2f GB/s (%.0f%% of solo)\n", n, got, 100*got/solo)
	}

	fmt.Println()
	fmt.Println("OctoSSD (dual-port drives, requests routed through the buffer-local port):")
	octoSolo := measure(nvme.OctoSSD, true, 0)
	octoLoaded := measure(nvme.OctoSSD, true, 10)
	fmt.Printf("  no antagonist:          %5.2f GB/s\n", octoSolo)
	fmt.Printf("  10 STREAM instances:    %5.2f GB/s (%.0f%% of solo)\n", octoLoaded, 100*octoLoaded/octoSolo)
	fmt.Println()
	fmt.Println("the fio data never crosses the UPI, so saturating it changes nothing")
}
