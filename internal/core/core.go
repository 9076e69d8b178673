// Package core assembles the complete IOctopus system — the paper's
// contribution — out of the substrates: a dual-socket server whose
// bifurcated 100 Gb/s NIC can run either the standard firmware (two
// per-PF netdevices, the local/remote baselines) or the IOctopus
// firmware + octoNIC team driver (one netdevice, one MAC, IOctoRFS
// steering), wired back-to-back to a client machine, exactly as §5's
// experimental setup describes.
package core

import (
	"fmt"
	"time"

	"ioctopus/internal/driver"
	"ioctopus/internal/eth"
	"ioctopus/internal/faults"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// NICMode selects how the server's bifurcated NIC is presented to the
// OS (§5, "Evaluated configurations").
type NICMode int

// Modes.
const (
	// ModeStandard runs the shipping firmware: the NIC appears as two
	// NICs, one per socket. Combined with workload placement this gives
	// the paper's `local` and `remote` configurations.
	ModeStandard NICMode = iota
	// ModeIOctopus flashes the IOctopus firmware and loads the octoNIC
	// team driver: one netdevice, no NUDMA.
	ModeIOctopus
)

// String names the mode.
func (m NICMode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeIOctopus:
		return "ioctopus"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Datapath selects how the server drivers consume NIC completions:
// interrupt/NAPI (the default), the busy-poll PMD loop, or hybrid
// adaptive polling (see internal/driver/pmd.go).
type Datapath = driver.Datapath

// Datapaths.
const (
	DatapathInterrupt = driver.DatapathInterrupt
	DatapathBusyPoll  = driver.DatapathBusyPoll
	DatapathHybrid    = driver.DatapathHybrid
)

// ParseDatapath maps the scenario spelling ("", "interrupt",
// "busypoll", "hybrid") to a Datapath.
func ParseDatapath(s string) (Datapath, error) { return driver.ParseDatapath(s) }

// Well-known addresses of the testbed.
const (
	IPServerPF0 uint32 = 0x0A000001 // 10.0.0.1 — standard netdev on PF0 / octo netdev
	IPServerPF1 uint32 = 0x0A000002 // 10.0.0.2 — standard netdev on PF1
	IPClient    uint32 = 0x0A000064 // 10.0.0.100
)

// Config describes a cluster build.
type Config struct {
	// Mode selects the server NIC presentation.
	Mode NICMode
	// EnableSG turns on the IOctoSG extension (octo mode only).
	EnableSG bool
	// DisableCoalescing zeroes interrupt moderation (latency runs).
	DisableCoalescing bool
	// DisableDDIO models the llnd configuration of Figure 9 (both
	// hosts).
	DisableDDIO bool
	// Wiring chooses how the server NIC reaches both sockets; default
	// bifurcated x16 -> 2 x8 (the prototype).
	Wiring pcie.Wiring
	// ServerTopo/ClientTopo override the default dual-Broadwell
	// machines.
	ServerTopo *topology.Server
	ClientTopo *topology.Server
	// DriverParams sets the drivers. Its zero value is the default;
	// RemoteDDIO applies to every driver (the §2.4 remote-DDIO
	// measurement homes the completion rings on the NIC's node), the
	// watchdog to the server's only.
	DriverParams driver.Params
	// Datapath selects the server drivers' completion delivery:
	// interrupt/NAPI (the zero value — byte-identical to a config that
	// predates the field), busypoll, or hybrid. The client machine
	// always runs the interrupt path, as the paper's testbed did.
	Datapath Datapath
	// StackParams sets both hosts' netstack. Its zero value runs without
	// retransmission; a fault plan that drops frames needs RetxTimeout
	// set (a scenario spec sets it through its retx key).
	StackParams netstack.Params
	// FaultPlan, when non-nil, is armed against the assembled cluster;
	// its events fire relative to simulated time zero. A nil plan arms
	// nothing and leaves every fault hook at its zero-cost default.
	FaultPlan *faults.Plan
	// Seed drives all randomized workload behaviour.
	Seed int64
}

// Host is one assembled machine.
type Host struct {
	Topo   *topology.Server
	Fabric *interconnect.Fabric
	Mem    *memsys.System
	PCIe   *pcie.Fabric
	Kernel *kernel.Kernel
	Stack  *netstack.Stack
	NIC    *nic.NIC
}

// Cluster is the two-machine testbed.
type Cluster struct {
	Eng    *sim.Engine
	Server *Host
	Client *Host
	RNG    *sim.RNG

	// Server-side netdevices. Standard mode: Dev0 on PF0 (node 0) and
	// Dev1 on PF1 (node 1). Octo mode: Dev0 is the single octo
	// netdevice and Dev1 is nil.
	Dev0, Dev1 netstack.NetDevice
	// Octo is the octoNIC driver when Mode == ModeIOctopus.
	Octo *driver.Octo
	// ClientDev is the client's netdevice.
	ClientDev netstack.NetDevice

	Wire *eth.Wire

	// Faults is the armed injector when Config.FaultPlan was set.
	Faults *faults.Injector

	// Reg is the cluster-wide metrics registry: every subsystem of both
	// hosts registers its probes here during assembly, namespaced as
	// "<host>/<subsystem>/..." ("server/nic/pf0/rx_bytes",
	// "client/mem/node0/dram_read_bytes", ...) plus "engine/..." for
	// the simulation engine itself. Snapshot it at any simulation
	// instant for a full-system telemetry dump.
	Reg *metrics.Registry
}

// buildHost assembles kernel+memory+pcie+stack for one machine.
func buildHost(e *sim.Engine, net *netstack.Network, name string, topo *topology.Server, ddio bool, stackParams netstack.Params) *Host {
	fab := interconnect.New(e, topo)
	mem := memsys.New(e, topo, fab, ddio)
	pc := pcie.New(e, mem)
	k := kernel.New(e, topo, mem)
	st := netstack.NewStack(k, name, net, stackParams)
	return &Host{
		Topo:   topo,
		Fabric: fab,
		Mem:    mem,
		PCIe:   pc,
		Kernel: k,
		Stack:  st,
	}
}

// normalize fills a config's defaulted fields in place.
func (cfg *Config) normalize() {
	if cfg.ServerTopo == nil {
		cfg.ServerTopo = topology.DualBroadwell()
	}
	if cfg.ClientTopo == nil {
		cfg.ClientTopo = topology.DualBroadwell()
	}
	if cfg.Wiring == pcie.WiringDirect {
		cfg.Wiring = pcie.WiringBifurcated
	}
}

// ValidateConfig rejects cluster configs that would assemble a broken
// machine — a topology its own Validate rejects, a lane budget that
// bifurcates to nothing, a fault that drops frames with retransmission
// off —
// with an error naming the problem instead of a panic (or a silent
// stall) from deep inside a substrate package.
func ValidateConfig(cfg Config) error {
	cfg.normalize()
	if err := cfg.ServerTopo.Validate(); err != nil {
		return fmt.Errorf("core: server: %w", err)
	}
	if err := cfg.ClientTopo.Validate(); err != nil {
		return fmt.Errorf("core: client: %w", err)
	}
	switch cfg.Wiring {
	case pcie.WiringBifurcated, pcie.WiringRiser:
		if 16/cfg.ServerTopo.NumNodes() == 0 {
			return fmt.Errorf("core: cannot bifurcate a x16 card across %d sockets (zero lanes per PF)", cfg.ServerTopo.NumNodes())
		}
	case pcie.WiringExtender, pcie.WiringSwitch:
		// Full-width endpoints per socket: always feasible.
	default:
		return fmt.Errorf("core: unknown PCIe wiring %v", cfg.Wiring)
	}
	switch cfg.Mode {
	case ModeStandard, ModeIOctopus:
	default:
		return fmt.Errorf("core: unknown NIC mode %v", cfg.Mode)
	}
	// Without retransmission the first TCP segment a fault drops stalls
	// its flow for the rest of the run.
	if cfg.FaultPlan != nil && cfg.StackParams.RetxTimeout <= 0 {
		for i, ev := range cfg.FaultPlan.Events {
			switch ev.Kind {
			case faults.LinkDown, faults.LinkFlap, faults.Loss, faults.Burst, faults.Corrupt:
				return fmt.Errorf("core: fault %d (%v) drops frames but retransmission is off (StackParams.RetxTimeout %v)", i, ev.Kind, cfg.StackParams.RetxTimeout)
			}
		}
	}
	switch cfg.Datapath {
	case DatapathInterrupt, DatapathHybrid:
	case DatapathBusyPoll:
		// Busy-polling dedicates the last core of every server node to
		// the PMD loop; a single-core node would hand its only core to
		// the poller and leave nothing to run applications.
		for n := 0; n < cfg.ServerTopo.NumNodes(); n++ {
			if len(cfg.ServerTopo.CoresOn(topology.NodeID(n))) < 2 {
				return fmt.Errorf("core: busypoll datapath needs >= 2 cores per server node (node %d has %d; the poll core would starve the workload)",
					n, len(cfg.ServerTopo.CoresOn(topology.NodeID(n))))
			}
		}
	default:
		return fmt.Errorf("core: unknown datapath %v", cfg.Datapath)
	}
	return nil
}

// NewCluster builds the full testbed per the config, panicking on an
// invalid one (the historical behaviour; experiment code builds from
// vetted configs). Callers assembling from external input should use
// NewClusterE.
func NewCluster(cfg Config) *Cluster {
	cl, err := NewClusterE(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// NewClusterE builds the full testbed per the config, returning an
// error for invalid topologies or fault plans.
func NewClusterE(cfg Config) (*Cluster, error) {
	// Normalized first, so ValidateConfig finds nothing left to default.
	cfg.normalize()
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	e := sim.NewEngine()
	net := netstack.NewNetwork()

	cl := &Cluster{
		Eng: e,
		RNG: sim.NewRNG(cfg.Seed + 1),
	}
	cl.Server = buildHost(e, net, "server", cfg.ServerTopo, !cfg.DisableDDIO, cfg.StackParams)
	cl.Client = buildHost(e, net, "client", cfg.ClientTopo, !cfg.DisableDDIO, cfg.StackParams)

	coalesce := nic.DefaultCoalesceDelay
	if cfg.DisableCoalescing {
		coalesce = 0
	}

	// Server NIC: ConnectX-5-like, x16 bifurcated (or alternative
	// wiring) across both sockets.
	var serverNodes []topology.NodeID
	for i := 0; i < cfg.ServerTopo.NumNodes(); i++ {
		serverNodes = append(serverNodes, topology.NodeID(i))
	}
	sEPs := cl.Server.PCIe.AttachCard(pcie.CardConfig{
		Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: cfg.Wiring, Nodes: serverNodes,
	})
	cl.Server.NIC = nic.New(e, "cx5", sEPs, coalesce)

	// Client NIC: ConnectX-4-like, x16 direct on node 0.
	cEPs := cl.Client.PCIe.AttachCard(pcie.CardConfig{
		Name: "cx4", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: pcie.WiringDirect, Nodes: []topology.NodeID{0},
	})
	cl.Client.NIC = nic.New(e, "cx4", cEPs, coalesce)

	// Cable them back to back.
	cl.Wire = eth.NewWire(e, "b2b", cl.Server.NIC, cl.Client.NIC)
	cl.Server.NIC.AttachWire(cl.Wire)
	cl.Client.NIC.AttachWire(cl.Wire)

	// Client side: always the standard single-PF driver, always the
	// interrupt datapath (the paper's client machine is stock Linux; the
	// datapath axis is a server-side experiment). The self-healing
	// watchdog is a server-side experiment too: the client takes only
	// the completion-ring home.
	clientParams := driver.Params{RemoteDDIO: cfg.DriverParams.RemoteDDIO}
	cl.Client.NIC.LoadFirmware(nic.NewStandardFirmware(cl.Client.NIC))
	cDrv := driver.NewStandard(cl.Client.Kernel, cl.Client.Mem, cl.Client.NIC.PF(0), "eth0", clientParams, driver.DatapathInterrupt)
	cDrv.Bind(cl.Client.Stack)
	cl.Client.Stack.AddDevice(cDrv, IPClient)
	cl.ClientDev = cDrv

	// Server side: mode-dependent.
	switch cfg.Mode {
	case ModeStandard:
		cl.Server.NIC.LoadFirmware(nic.NewStandardFirmware(cl.Server.NIC))
		d0 := driver.NewStandard(cl.Server.Kernel, cl.Server.Mem, cl.Server.NIC.PF(0), "eth0", cfg.DriverParams, cfg.Datapath)
		d0.Bind(cl.Server.Stack)
		cl.Server.Stack.AddDevice(d0, IPServerPF0)
		cl.Dev0 = d0
		if len(cl.Server.NIC.PFs()) > 1 {
			d1 := driver.NewStandard(cl.Server.Kernel, cl.Server.Mem, cl.Server.NIC.PF(1), "eth1", cfg.DriverParams, cfg.Datapath)
			d1.Bind(cl.Server.Stack)
			cl.Server.Stack.AddDevice(d1, IPServerPF1)
			cl.Dev1 = d1
		}
	case ModeIOctopus:
		cl.Server.NIC.LoadFirmware(nic.NewOctoFirmware(cl.Server.NIC, cfg.EnableSG))
		od := driver.NewOcto(cl.Server.Kernel, cl.Server.Mem, cl.Server.NIC, "octo0", cfg.DriverParams, cfg.Datapath)
		od.Bind(cl.Server.Stack)
		cl.Server.Stack.AddDevice(od, IPServerPF0)
		cl.Dev0 = od
		cl.Octo = od
	}

	// Fault injection: armed against the fully cabled system so link,
	// wire, fabric and core faults all have live targets. With no plan
	// nothing is installed and the datapath keeps its no-fault fast
	// paths (nil filters, link-up flags).
	if cfg.FaultPlan != nil {
		// PollerStall needs the server drivers' busy-poll loops; the
		// interface assertion keeps interrupt-mode runs (no pollers) and
		// the client (always interrupt) out of the target list.
		var pollers []*kernel.Poller
		for _, dev := range []netstack.NetDevice{cl.Dev0, cl.Dev1} {
			if pd, ok := dev.(interface{ Pollers() []*kernel.Poller }); ok {
				pollers = append(pollers, pd.Pollers()...)
			}
		}
		inj, err := faults.Arm(cfg.FaultPlan, faults.Targets{
			Engine:     e,
			NIC:        cl.Server.NIC,
			Wire:       cl.Wire,
			ServerPort: cl.Server.NIC,
			ClientPort: cl.Client.NIC,
			Fabric:     cl.Server.Fabric,
			Kernel:     cl.Server.Kernel,
			Pollers:    pollers,
		})
		if err != nil {
			return nil, err
		}
		cl.Faults = inj
	}

	// Observability: registration happens last, after the drivers have
	// attached their queues, so every probe sees the assembled system.
	// Probes are closures over live state — nothing here runs on the
	// simulation hot path, and an unsnapshotted registry costs nothing.
	cl.Reg = metrics.NewRegistry()
	metrics.RegisterEngine(cl.Reg.Scope("engine"), e)
	cl.Server.registerMetrics(cl.Reg.Scope("server"))
	cl.Client.registerMetrics(cl.Reg.Scope("client"))
	if cl.Faults != nil {
		cl.Faults.RegisterMetrics(cl.Reg.Scope("faults"))
	}
	return cl, nil
}

// registerMetrics wires one host's subsystems into the cluster registry.
func (h *Host) registerMetrics(r metrics.Registrar) {
	h.Mem.RegisterMetrics(r.Scope("mem"))
	h.Fabric.RegisterMetrics(r.Scope("fabric"))
	h.Kernel.RegisterMetrics(r.Scope("kernel"))
	h.Stack.RegisterMetrics(r.Scope("stack"))
	if h.NIC != nil {
		h.NIC.RegisterMetrics(r.Scope("nic"))
	}
	for _, dev := range h.Stack.Devices() {
		type registrable interface {
			RegisterMetrics(metrics.Registrar)
		}
		if d, ok := dev.(registrable); ok {
			d.RegisterMetrics(r.Scope(fmt.Sprintf("driver/%s", dev.Name())))
		}
	}
}

// Run advances the whole cluster by d.
func (cl *Cluster) Run(d time.Duration) { cl.Eng.RunFor(d) }

// Drain terminates all simulation processes; call once per cluster when
// done.
func (cl *Cluster) Drain() { cl.Eng.Drain() }
