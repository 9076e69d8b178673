package core

import (
	"fmt"
	"time"

	"ioctopus/internal/netstack"
	"ioctopus/internal/nvme"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// The §5.4 storage testbed's fixed shape: four NVMe drives (Samsung
// PM1725a) whose primary ports attach to socket 1 of a dual-Skylake
// server.
const (
	storageDrives                  = 4
	storageSSDNode topology.NodeID = 1
)

// StorageRig is the assembled storage testbed.
type StorageRig struct {
	Eng    *sim.Engine
	Host   *Host
	Drives []*nvme.Driver
}

// NewStorageRig builds the testbed with the given driver routing
// (SinglePath or OctoSSD). dualPort wires each drive to both sockets
// (the customized backplane of §5.4).
func NewStorageRig(policy nvme.Policy, dualPort bool) *StorageRig {
	topo := topology.DualSkylake()
	e := sim.NewEngine()
	net := netstack.NewNetwork()
	h := buildHost(e, net, "storage-server", topo, true, netstack.Params{})
	rig := &StorageRig{Eng: e, Host: h}
	for i := 0; i < storageDrives; i++ {
		name := fmt.Sprintf("nvme%d", i)
		var eps []*pcie.Endpoint
		if dualPort {
			// Port 0 stays on the SSD node (the primary path a stock
			// multipath setup would use); the second port reaches the
			// other socket.
			nodes := []topology.NodeID{storageSSDNode}
			for n := 0; n < topo.NumNodes(); n++ {
				if topology.NodeID(n) != storageSSDNode {
					nodes = append(nodes, topology.NodeID(n))
				}
			}
			eps = h.PCIe.AttachCard(pcie.CardConfig{
				Name: name, Gen: pcie.Gen3, TotalLanes: 8,
				Wiring: pcie.WiringBifurcated, Nodes: nodes,
			})
		} else {
			eps = h.PCIe.AttachCard(pcie.CardConfig{
				Name: name, Gen: pcie.Gen3, TotalLanes: 8,
				Wiring: pcie.WiringDirect, Nodes: []topology.NodeID{storageSSDNode},
			})
		}
		ctrl := nvme.New(e, h.Mem, name, eps)
		rig.Drives = append(rig.Drives, nvme.NewDriver(h.Kernel, ctrl, policy))
	}
	return rig
}

// Run advances the rig by d.
func (r *StorageRig) Run(d time.Duration) { r.Eng.RunFor(d) }

// Drain terminates simulation processes.
func (r *StorageRig) Drain() { r.Eng.Drain() }
