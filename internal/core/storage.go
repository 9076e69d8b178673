package core

import (
	"fmt"
	"time"

	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nvme"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// StorageConfig describes the §5.4 storage testbed: a dual-socket
// Skylake server with NVMe drives on one socket and the I/O workload on
// the other.
type StorageConfig struct {
	// Drives is the SSD count (paper: 4 Samsung PM1725a).
	Drives int
	// SSDNode is the socket the drives' primary port attaches to.
	SSDNode topology.NodeID
	// DualPort wires each drive to both sockets (the customized
	// backplane of §5.4).
	DualPort bool
	// Policy selects the driver routing (SinglePath or OctoSSD).
	Policy nvme.Policy
	// Topo overrides the default dual-Skylake machine.
	Topo *topology.Server
	// Seed drives randomized workload behaviour.
	Seed int64
}

// StorageRig is the assembled storage testbed.
type StorageRig struct {
	Eng    *sim.Engine
	Host   *Host
	Drives []*nvme.Driver
	RNG    *sim.RNG
}

// NewStorageRig builds the testbed.
func NewStorageRig(cfg StorageConfig) *StorageRig {
	if cfg.Drives <= 0 {
		cfg.Drives = 4
	}
	if cfg.Topo == nil {
		cfg.Topo = topology.DualSkylake()
	}
	e := sim.NewEngine()
	net := netstack.NewNetwork()
	h := buildHost(e, net, "storage-server", cfg.Topo, true, netstack.DefaultParams())
	rig := &StorageRig{Eng: e, Host: h, RNG: sim.NewRNG(cfg.Seed + 7)}
	for i := 0; i < cfg.Drives; i++ {
		name := fmt.Sprintf("nvme%d", i)
		var eps []*pcie.Endpoint
		if cfg.DualPort {
			// Port 0 stays on the SSD node (the primary path a stock
			// multipath setup would use); the second port reaches the
			// other socket.
			nodes := []topology.NodeID{cfg.SSDNode}
			for n := 0; n < cfg.Topo.NumNodes(); n++ {
				if topology.NodeID(n) != cfg.SSDNode {
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
				Wiring: pcie.WiringDirect, Nodes: []topology.NodeID{cfg.SSDNode},
			})
		}
		ctrl := nvme.New(e, h.Mem, name, eps)
		rig.Drives = append(rig.Drives, nvme.NewDriver(h.Kernel, ctrl, cfg.Policy))
	}
	return rig
}

// Run advances the rig by d.
func (r *StorageRig) Run(d time.Duration) { r.Eng.RunFor(d) }

// Drain terminates simulation processes.
func (r *StorageRig) Drain() { r.Eng.Drain() }

// Kernel returns the host kernel.
func (r *StorageRig) Kernel() *kernel.Kernel { return r.Host.Kernel }

// Mem returns the host memory system.
func (r *StorageRig) Mem() *memsys.System { return r.Host.Mem }

// Fabric returns the host interconnect.
func (r *StorageRig) Fabric() *interconnect.Fabric { return r.Host.Fabric }
