// Package ioctopus is a full-system simulation of IOctopus (Smolyar et
// al., ASPLOS 2020): a device architecture that eliminates nonuniform
// DMA (NUDMA) by unifying one physical function per CPU socket into a
// single logical device, steered by flow (IOctoRFS) instead of by MAC.
//
// The library models the paper's entire testbed — dual-socket NUMA
// servers, QPI/UPI interconnect, LLC with DDIO, PCIe fabric with
// bifurcation, a multi-queue 100 GbE NIC with standard and IOctopus
// firmware, the Linux-like kernel/netstack/driver stack, NVMe storage,
// and every benchmark of the evaluation (netperf, pktgen, sockperf,
// memcached, STREAM, PageRank, fio) — as a deterministic discrete-event
// simulation.
//
// Quick start:
//
//	cl := ioctopus.NewCluster(ioctopus.Config{Mode: ioctopus.ModeIOctopus})
//	defer cl.Drain()
//	// drive workloads (see package workloads re-exports below), then
//	cl.Run(50 * time.Millisecond)
//
// Or reproduce a paper figure directly:
//
//	res, err := ioctopus.RunExperiment("fig6", ioctopus.FullDurations())
//	fmt.Println(res.Render())
package ioctopus

import (
	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/experiments"
	"ioctopus/internal/faults"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nvme"
	"ioctopus/internal/pcie"
	"ioctopus/internal/scenario"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// Thread is a simulated kernel thread; application code in examples and
// workloads runs on Threads and consumes CPU through them.
type Thread = kernel.Thread

// Socket is a connected TCP/UDP endpoint on a host's stack.
type Socket = netstack.Socket

// CoreID identifies a core; NodeID a NUMA node.
type (
	CoreID = topology.CoreID
	NodeID = topology.NodeID
)

// Transport protocol numbers for Dial.
const (
	ProtoTCP = eth.ProtoTCP
	ProtoUDP = eth.ProtoUDP
)

// Cluster is the two-machine testbed of §5: a dual-socket server with a
// bifurcated multi-PF NIC, cabled back-to-back to a client.
type Cluster = core.Cluster

// Config selects what the experiments vary: NIC mode, wiring,
// datapath, topologies, IOctoSG, DDIO, coalescing, driver and stack
// settings, fault plan and seed. The rest of the §5 testbed is fixed.
type Config = core.Config

// Host is one assembled machine (kernel, memory system, PCIe, stack).
type Host = core.Host

// NICMode selects the standard firmware (per-PF netdevices) or the
// IOctopus firmware (one netdevice, IOctoRFS steering).
type NICMode = core.NICMode

// NIC modes.
const (
	ModeStandard = core.ModeStandard
	ModeIOctopus = core.ModeIOctopus
)

// Well-known testbed addresses.
const (
	IPServerPF0 = core.IPServerPF0
	IPServerPF1 = core.IPServerPF1
	IPClient    = core.IPClient
)

// Wiring options for reaching multiple sockets (§3.2).
type Wiring = pcie.Wiring

// Wirings.
const (
	WiringBifurcated = pcie.WiringBifurcated
	WiringExtender   = pcie.WiringExtender
	WiringRiser      = pcie.WiringRiser
	WiringSwitch     = pcie.WiringSwitch
)

// NewCluster builds the testbed.
func NewCluster(cfg Config) *Cluster { return core.NewCluster(cfg) }

// NewClusterE builds the testbed, returning an error instead of
// panicking when the config describes an impossible machine (a PF with
// zero queues, a card wired to a socket the topology lacks, a
// malformed fault plan, or one that drops frames with retransmission
// off).
func NewClusterE(cfg Config) (*Cluster, error) { return core.NewClusterE(cfg) }

// ValidateConfig vets a cluster config without building it.
func ValidateConfig(cfg Config) error { return core.ValidateConfig(cfg) }

// StackParams are the netstack settings a cluster may vary, set via
// Config.StackParams: the retransmission timer and its retry bound. The
// zero value runs without retransmission; a fault plan that drops
// frames needs it on.
type StackParams = netstack.Params

// Fault injection: a FaultPlan is a deterministic, seed-driven schedule
// of failures armed against the assembled cluster via Config.FaultPlan.
// The same seed and events replay byte-identically.
type (
	FaultPlan     = faults.Plan
	FaultEvent    = faults.Event
	FaultInjector = faults.Injector
)

// Fault kinds and wire directions.
const (
	FaultLinkDown = faults.LinkDown
	FaultLinkUp   = faults.LinkUp
	FaultLinkFlap = faults.LinkFlap
	FaultLoss     = faults.Loss
	FaultBurst    = faults.Burst
	FaultCorrupt  = faults.Corrupt
	FaultDegrade  = faults.Degrade
	FaultStall    = faults.Stall

	ClientToServer = faults.ClientToServer
	ServerToClient = faults.ServerToClient
)

// StorageRig is the §5.4 NVMe testbed: four drives on socket 1 of a
// dual-Skylake server.
type StorageRig = core.StorageRig

// NVMe driver routing policies.
const (
	NVMeSinglePath = nvme.SinglePath
	NVMeOctoSSD    = nvme.OctoSSD
)

// NewStorageRig builds the storage testbed with the given driver
// routing (NVMeSinglePath or NVMeOctoSSD); dualPort wires each drive to
// both sockets.
func NewStorageRig(policy nvme.Policy, dualPort bool) *StorageRig {
	return core.NewStorageRig(policy, dualPort)
}

// Topology constructors for custom setups.
var (
	// DualBroadwell is the paper's networking testbed machine.
	DualBroadwell = topology.DualBroadwell
	// DualSkylake is the paper's storage testbed machine.
	DualSkylake = topology.DualSkylake
	// QuadSocket is a four-socket machine (an octoNIC with four limbs).
	QuadSocket = topology.QuadSocket
)

// Workload re-exports: the benchmark programs of the evaluation. Pktgen
// (core, packet size), PageRank (work per thread) and fio (cores) keep
// the paper's fixed shapes and take their few inputs as arguments.
type (
	// StreamConfig configures netperf TCP_STREAM instances.
	StreamConfig = workloads.StreamConfig
	// RRConfig configures netperf TCP_RR / sockperf ping-pong.
	RRConfig = workloads.RRConfig
	// MemcachedConfig configures memcached + memslap.
	MemcachedConfig = workloads.MemcachedConfig
	// AntagonistConfig configures STREAM memory antagonists.
	AntagonistConfig = workloads.AntagonistConfig
)

// Workload starters.
var (
	StartStream       = workloads.StartStream
	StartRR           = workloads.StartRR
	StartPktgen       = workloads.StartPktgen
	StartMemcached    = workloads.StartMemcached
	StartAntagonist   = workloads.StartAntagonist
	StartAntagonistOn = workloads.StartAntagonistOn
	StartPageRank     = workloads.StartPageRank
	StartFio          = workloads.StartFio
)

// Rx and Tx are stream directions (from the server's perspective).
const (
	Rx = workloads.Rx
	Tx = workloads.Tx
)

// ExperimentResult is one reproduced figure: tables, series, checks.
type ExperimentResult = experiments.Result

// Durations scales experiment windows.
type Durations = experiments.Durations

// QuickDurations returns short windows (tests, smoke runs).
func QuickDurations() Durations { return experiments.Quick() }

// FullDurations returns the windows the committed results use.
func FullDurations() Durations { return experiments.Full() }

// RunExperiment reproduces one paper figure by id (fig2, fig6..fig15,
// fig6-multicore, fig15-octossd, ablation-*).
func RunExperiment(id string, d Durations) (*ExperimentResult, error) {
	return experiments.Run(id, d)
}

// ExperimentIDs lists all reproducible artifacts. Hidden harnesses
// (chaos, pmd, devchaos) are runnable by name but not listed;
// HasExperiment accepts both.
func ExperimentIDs() []string { return experiments.IDs() }

// HasExperiment reports whether id names a runnable experiment,
// including the hidden chaos, pmd and devchaos harnesses (CLI flag
// validation).
func HasExperiment(id string) bool { return experiments.Has(id) }

// Report is the versioned JSON export of an ioctobench run (schema
// "ioctobench-report", version 1): run metadata, per-figure results,
// and optional full-system registry snapshots.
type Report = experiments.Report

// RegistrySnapshot is one NIC mode's full-system telemetry dump.
type RegistrySnapshot = experiments.RegistrySnapshot

// NewReport assembles a report around computed results.
func NewReport(ids []string, quick bool, d Durations, results []*ExperimentResult) *Report {
	return experiments.NewReport(ids, quick, d, results)
}

// RegistrySnapshots runs the canonical smoke workload once per NIC
// mode and snapshots each cluster's metrics registry.
func RegistrySnapshots(d Durations) []RegistrySnapshot {
	return experiments.RegistrySnapshots(d)
}

// ValidateReport checks that data is a well-formed report of the
// current schema version.
func ValidateReport(data []byte) error { return experiments.ValidateReport(data) }

// Scenario is a declarative experiment: topology, NIC mode and wiring,
// workload mix, fault schedule, and checks, as validated data (a Go
// literal or a JSON file) instead of a hand-wired runner.
type Scenario = scenario.Spec

// LoadScenario resolves a -scenario argument: a builtin name
// (ScenarioNames lists them) or a path to a JSON spec file; the spec is
// validated before it is returned.
func LoadScenario(nameOrPath string) (*Scenario, error) { return scenario.Load(nameOrPath) }

// ParseScenario decodes and validates a JSON scenario spec.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario validates and executes a scenario. The run is a pure
// function of (spec, durations): same inputs, byte-identical output.
func RunScenario(sp *Scenario, d Durations) (*ExperimentResult, error) {
	return experiments.RunSpec(sp, d)
}

// Tracer records the pipe activity of scenario runs for a Chrome
// trace-event file (WriteChromeTrace; open it in ui.perfetto.dev). Each
// traced scenario is one process, numbered in run order; one ring keeps
// the newest 2^20 records of the whole run.
type Tracer = sim.Tracer

// NewTracer returns an empty tracer for RunScenarioTraced.
func NewTracer() *Tracer { return sim.NewTracer() }

// RunScenarioTraced is RunScenario with the scenario's engine recorded
// into tr as a process named after the scenario. Tracing only observes:
// the result renders the same text as RunScenario's. Run the scenarios
// sharing one tracer one at a time.
func RunScenarioTraced(sp *Scenario, d Durations, tr *Tracer) (*ExperimentResult, error) {
	return experiments.RunSpecTraced(sp, d, tr)
}

// GenerateScenario draws a random but always-valid scenario from a
// seed — the property-based "simulation fuzzing" entry point behind
// ioctobench -fuzz. Same seed, same spec, same run output.
func GenerateScenario(seed int64) *Scenario { return scenario.Generate(seed) }

// FuzzDurations returns the measurement windows fuzz runs use.
func FuzzDurations() Durations { return experiments.FuzzDurations() }

// ScenarioNames lists the builtin scenario specs (the chaos harness,
// which `-fig chaos` also runs).
func ScenarioNames() []string { return scenario.Builtins() }

// SetParallelism bounds how many simulation points (independent
// clusters) the experiment harness runs concurrently. Results are
// deterministic at any level; the default is runtime.GOMAXPROCS(0).
func SetParallelism(n int) { experiments.SetParallelism(n) }

// Parallelism returns the current harness parallelism bound.
func Parallelism() int { return experiments.Parallelism() }

// Datapath selects how completions reach the server's driver:
// interrupt (the default NAPI path), busypoll (dedicated poll-mode
// cores, no interrupts), or hybrid (adaptive polling with interrupt
// re-arm). Set it per cluster with Config.Datapath or per scenario
// with the spec's sim.datapath key.
type Datapath = core.Datapath

// Datapaths.
const (
	DatapathInterrupt = core.DatapathInterrupt
	DatapathBusyPoll  = core.DatapathBusyPoll
	DatapathHybrid    = core.DatapathHybrid
)

// ParseDatapath maps the scenario spelling ("", "interrupt",
// "busypoll", "hybrid") to a Datapath.
func ParseDatapath(s string) (Datapath, error) { return core.ParseDatapath(s) }
