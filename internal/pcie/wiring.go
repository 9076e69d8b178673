package pcie

import (
	"fmt"

	"ioctopus/internal/topology"
)

// Wiring selects how a multi-endpoint card reaches multiple CPUs (§3.2).
type Wiring int

// Wiring options.
const (
	// WiringDirect attaches all lanes to a single socket — the
	// traditional single-PF configuration.
	WiringDirect Wiring = iota
	// WiringBifurcated splits the card's lanes evenly across sockets
	// (the octoNIC prototype: x16 -> 2 x8). Cheapest, least flexible.
	WiringBifurcated
	// WiringExtender gives every socket a full-width endpoint via PCIe
	// extender cabling (requires the device to have lanes to spare).
	WiringExtender
	// WiringRiser is motherboard riser wiring: electrically like
	// bifurcation, without external cables.
	WiringRiser
	// WiringSwitch places the card behind an onboard programmable PCIe
	// switch: full-width endpoints everywhere and dynamic rewiring, at
	// the cost of an extra hop on every transaction.
	WiringSwitch
)

// String names the wiring.
func (w Wiring) String() string {
	switch w {
	case WiringDirect:
		return "direct"
	case WiringBifurcated:
		return "bifurcated"
	case WiringExtender:
		return "extender"
	case WiringRiser:
		return "riser"
	case WiringSwitch:
		return "switch"
	default:
		return fmt.Sprintf("wiring(%d)", int(w))
	}
}

// CardConfig describes the physical card being attached.
type CardConfig struct {
	Name string
	Gen  Gen
	// TotalLanes is the card's lane budget (16 for the prototype).
	TotalLanes int
	Wiring     Wiring
	// Nodes are the sockets to reach. Direct wiring uses Nodes[0].
	Nodes []topology.NodeID
}

// AttachCard creates the card's endpoints per its wiring and returns
// them in Nodes order.
func (f *Fabric) AttachCard(cfg CardConfig) []*Endpoint {
	if cfg.TotalLanes <= 0 {
		panic(fmt.Sprintf("pcie: card %q needs lanes", cfg.Name))
	}
	if len(cfg.Nodes) == 0 {
		panic(fmt.Sprintf("pcie: card %q needs target nodes", cfg.Name))
	}
	switch cfg.Wiring {
	case WiringDirect:
		return []*Endpoint{
			f.NewEndpoint(cfg.Name+"/pf0", cfg.Nodes[0], cfg.Gen, cfg.TotalLanes),
		}
	case WiringBifurcated, WiringRiser:
		n := len(cfg.Nodes)
		lanes := cfg.TotalLanes / n
		if lanes == 0 {
			panic(fmt.Sprintf("pcie: card %q cannot bifurcate %d lanes %d ways", cfg.Name, cfg.TotalLanes, n))
		}
		eps := make([]*Endpoint, n)
		for i, node := range cfg.Nodes {
			eps[i] = f.NewEndpoint(fmt.Sprintf("%s/pf%d", cfg.Name, i), node, cfg.Gen, lanes)
		}
		return eps
	case WiringExtender:
		eps := make([]*Endpoint, len(cfg.Nodes))
		for i, node := range cfg.Nodes {
			eps[i] = f.NewEndpoint(fmt.Sprintf("%s/pf%d", cfg.Name, i), node, cfg.Gen, cfg.TotalLanes)
		}
		return eps
	case WiringSwitch:
		eps := make([]*Endpoint, len(cfg.Nodes))
		for i, node := range cfg.Nodes {
			eps[i] = f.newEndpoint(fmt.Sprintf("%s/pf%d", cfg.Name, i), node, cfg.Gen, cfg.TotalLanes, switchLatency)
		}
		return eps
	default:
		panic(fmt.Sprintf("pcie: unknown wiring %v", cfg.Wiring))
	}
}
