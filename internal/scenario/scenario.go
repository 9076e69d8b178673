// Package scenario is the declarative experiment data layer: a
// validated, seed-deterministic Spec — topology, NIC mode and wiring,
// workload mix, fault schedule, and the checks that judge the run —
// with its JSON form (Parse, Marshal, Load), the builtin specs and the
// seeded generator (Generate). A scenario is data (a Go literal or a
// JSON file), not a new hand-wired figN.go runner. The one runner that
// turns a Spec into a cluster simulation is experiments.RunSpec: it
// runs the builtin chaos harness, JSON files from disk, the generator's
// draws behind `ioctobench -fuzz` (property-based "simulation fuzzing"
// of the steering/failover invariants) and the devchaos cells.
//
// Determinism contract: a Spec is a pure function from (spec, seed,
// durations) to rendered output. Marshal → unmarshal → run is
// byte-identical to running the Go literal.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/faults"
	"ioctopus/internal/netstack"
	"ioctopus/internal/pcie"
	"ioctopus/internal/topology"
)

// Spec is one complete scenario: a cluster to assemble and drive.
type Spec struct {
	// Name is the scenario id (the Result ID and the -scenario name).
	Name string `json:"name"`
	// Title is the Result title line.
	Title string `json:"title"`
	// Seed drives the cluster RNG and the fault plan's loss streams;
	// the whole run is a pure function of it.
	Seed int64 `json:"seed"`

	Sim *SimSpec `json:"sim,omitempty"`
}

// MachineSpec names a host: a preset by name, or a custom build with
// explicit socket/core counts (Broadwell-class per-socket template).
type MachineSpec struct {
	Preset         string `json:"preset,omitempty"`
	Sockets        int    `json:"sockets,omitempty"`
	CoresPerSocket int    `json:"cores_per_socket,omitempty"`
}

// TopoSpec is the two-machine testbed shape.
type TopoSpec struct {
	Server MachineSpec `json:"server"`
	Client MachineSpec `json:"client"`
}

// RetxSpec enables the netstack retransmission timer.
type RetxSpec struct {
	Timeout  time.Duration `json:"timeout_ns"`
	MaxTries int           `json:"max_tries"`
}

// WatchdogSpec arms the server drivers' self-healing watchdog (the
// staged recovery ladder of internal/driver/watchdog.go). Interval is
// the tick period; two consecutive no-progress samples declare a queue
// stuck, and the post-action grace period is 2×Interval, doubling per
// ladder stage. The interval is absolute, like RetxSpec, because
// recovery cadence is device physics, not a fraction of the run.
type WatchdogSpec struct {
	Interval time.Duration `json:"interval_ns"`
}

// WorkloadSpec is one element of the workload mix, kind-discriminated:
//
//   - "stream": a raw TCP byte stream with explicit sink/source thread
//     placement (the chaos harness shape); the runner tracks sent and
//     delivered bytes per stream for conservation checks.
//   - "netperf": workloads.StartStream TCP_STREAM instances.
//   - "memcached": workloads.StartMemcached + memslap clients.
type WorkloadSpec struct {
	Kind string `json:"kind"`

	// stream
	FromServer  bool   `json:"from_server,omitempty"` // server transmits
	Port        uint16 `json:"port,omitempty"`
	MsgSize     int64  `json:"msg_size,omitempty"`
	SinkName    string `json:"sink_name,omitempty"`
	SrcName     string `json:"src_name,omitempty"`
	SinkNode    int    `json:"sink_node,omitempty"`
	SinkCoreIdx int    `json:"sink_core_idx,omitempty"`
	SrcNode     int    `json:"src_node,omitempty"`
	SrcCoreIdx  int    `json:"src_core_idx,omitempty"`

	// netperf
	Direction string `json:"direction,omitempty"` // "rx" | "tx"
	Instances int    `json:"instances,omitempty"`

	// memcached
	ServerNode int           `json:"server_node,omitempty"`
	Clients    int           `json:"clients,omitempty"`
	KeySize    int64         `json:"key_size,omitempty"`
	ValueSize  int64         `json:"value_size,omitempty"`
	SetRatio   float64       `json:"set_ratio,omitempty"`
	OpCost     time.Duration `json:"op_cost_ns,omitempty"`
	Pipeline   int           `json:"pipeline,omitempty"`
}

// FaultSpec is one scheduled fault, offsets expressed as integer
// percent of the run timeline so one spec scales from -quick to full
// windows; Dur is the absolute alternative for sub-window faults (a
// 1 ms core stall), and a fault sets at most one of DurPct and Dur.
// Kind and Dir use the faults package's String names.
type FaultSpec struct {
	Kind   string        `json:"kind"`
	AtPct  int           `json:"at_pct"`
	DurPct int           `json:"dur_pct,omitempty"`
	Dur    time.Duration `json:"dur_ns,omitempty"`

	PF        int     `json:"pf,omitempty"`
	Prob      float64 `json:"prob,omitempty"`
	Dir       string  `json:"dir,omitempty"` // "client-to-server" | "server-to-client"
	From      int     `json:"from,omitempty"`
	To        int     `json:"to,omitempty"`
	BWFactor  float64 `json:"bw_factor,omitempty"`
	LatFactor float64 `json:"lat_factor,omitempty"`
	Core      int     `json:"core,omitempty"`
	// Queue names the per-PF queue index of a queue-stall; Node names
	// the server node whose busy-poll loop a poller-stall wedges.
	Queue int `json:"queue,omitempty"`
	Node  int `json:"node,omitempty"`
}

// SampleSpec tracks one rate series over the run. Sources:
// "workload:<i>" (delivered bytes of a forward stream workload) and
// "pf:<n>" (server PF n receive bytes).
type SampleSpec struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// WindowSpec is one measurement window, percent of the timeline,
// half-open [FromPct, ToPct). The windowed rate is the server NIC's
// aggregate receive bandwidth; every window is reported against the
// first ("vs pre").
type WindowSpec struct {
	Name    string `json:"name"`
	FromPct int    `json:"from_pct"`
	ToPct   int    `json:"to_pct"`
}

// CounterSpec is one row of the counter table. Source is a pattern
// over the cluster's metrics registry in path.Match syntax, where '*'
// stays within one '/'-separated level; the row shows the sum of every
// metric it matches at the end of the run. Examples:
// "faults/*_drops" (frames the injector dropped on the wire),
// "server/nic/pf0/*_link_drops" (frames lost at a dead PF0),
// "server/driver/*/failover/failovers" (the octo driver's failovers)
// and "*/stack/retx/retransmits" (both hosts' retransmissions). A
// source must match at least one metric of the built cluster, so one
// that names a PF the server lacks, or a driver, watchdog or fault
// scope the spec does not arm, is an error.
type CounterSpec struct {
	Label  string `json:"label"`
	Source string `json:"source"`
}

// RecoverySpec derives the dip-depth and recovery-time notes from a
// sampled series: the deepest sample inside (FaultFromPct, FaultToPct)
// and the first sample at/after RecoverAfterPct back above Threshold of
// the first window's rate.
type RecoverySpec struct {
	Sample          int     `json:"sample"`
	FaultFromPct    int     `json:"fault_from_pct"`
	FaultToPct      int     `json:"fault_to_pct"`
	RecoverAfterPct int     `json:"recover_after_pct"`
	Threshold       float64 `json:"threshold"`
}

// CheckSpec is one declarative invariant. Kinds:
//
//   - "wire-drops-positive": the fault plan actually killed frames.
//   - "failover-and-back": the octo driver failed over and failed back.
//   - "reposted": stranded Tx descriptors were re-posted (>= Min).
//   - "retx-recovered": segments were retransmitted (>= Min).
//   - "no-abandoned": the retransmission layer abandoned nothing.
//   - "stream-conserved": stream workload Workload's sent-received gap
//     is within the in-flight bound (SendWindow + RxBufBytes).
//   - "progress": workload Workload delivered bytes / completed
//     transactions (> 0).
//   - "window-ratio": windows[Window] over windows[0] within [Lo, Hi].
//   - "no-errors": no workload goroutine recorded a failure.
//   - "fw-recovered": a firmware reset was observed and the journaled
//     steering rules were replayed (needs a fw-reset fault and the
//     watchdog, which the drivers' recovery counters register with).
//   - "queue-recovered": no completion is still stranded device-side at
//     the end of the run; Min > 0 additionally requires that many
//     watchdog queue resets (needs a queue-stall fault).
//   - "poller-fallback-and-back": a wedged poll loop degraded to
//     interrupt mode and re-entered polling (needs the busypoll
//     datapath, the watchdog, and a poller-stall fault).
type CheckSpec struct {
	Kind     string  `json:"kind"`
	Name     string  `json:"name"`
	Workload int     `json:"workload,omitempty"`
	Window   int     `json:"window,omitempty"`
	Lo       float64 `json:"lo,omitempty"`
	Hi       float64 `json:"hi,omitempty"`
	Min      uint64  `json:"min,omitempty"`
}

// SimSpec is a cluster scenario: what to build, what to run on it,
// what to break, what to measure, and what must hold.
type SimSpec struct {
	Topology TopoSpec `json:"topology"`
	Mode     string   `json:"mode"`             // "standard" | "ioctopus"
	Wiring   string   `json:"wiring,omitempty"` // "" = bifurcated
	EnableSG bool     `json:"enable_sg,omitempty"`
	// Datapath selects the server's completion delivery: "" or
	// "interrupt" (the NAPI default), "busypoll" (dedicated poll-mode
	// cores, which needs a spare core per server node), or "hybrid"
	// (adaptive polling).
	Datapath string `json:"datapath,omitempty"`

	Retx *RetxSpec `json:"retx,omitempty"`
	// Watchdog arms the driver self-healing ladder; nil keeps the
	// zero-cost default (no timer armed, no watchdog state).
	Watchdog *WatchdogSpec `json:"watchdog,omitempty"`

	Workloads []WorkloadSpec `json:"workloads"`
	Faults    []FaultSpec    `json:"faults,omitempty"`

	Samples      []SampleSpec  `json:"samples,omitempty"`
	Windows      []WindowSpec  `json:"windows,omitempty"`
	WindowTable  string        `json:"window_table,omitempty"`
	Counters     []CounterSpec `json:"counters,omitempty"`
	CounterTable string        `json:"counter_table,omitempty"`
	Recovery     *RecoverySpec `json:"recovery,omitempty"`
	Checks       []CheckSpec   `json:"checks,omitempty"`
	Notes        []string      `json:"notes,omitempty"`
}

// parseMode maps the spec's mode string.
func parseMode(s string) (core.NICMode, error) {
	switch s {
	case "standard":
		return core.ModeStandard, nil
	case "ioctopus":
		return core.ModeIOctopus, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want standard or ioctopus)", s)
	}
}

// parseWiring maps the spec's wiring string; "" keeps the default.
func parseWiring(s string) (pcie.Wiring, error) {
	switch s {
	case "", "bifurcated":
		return pcie.WiringBifurcated, nil
	case "extender":
		return pcie.WiringExtender, nil
	case "riser":
		return pcie.WiringRiser, nil
	case "switch":
		return pcie.WiringSwitch, nil
	default:
		return 0, fmt.Errorf("unknown wiring %q", s)
	}
}

// parseFaultKind maps a FaultSpec kind string to the faults package.
func parseFaultKind(s string) (faults.Kind, error) {
	for k := faults.LinkDown; k <= faults.PollerStall; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown fault kind %q", s)
}

// parseDir maps a wire direction string.
func parseDir(s string) (faults.Dir, error) {
	switch s {
	case "client-to-server":
		return faults.ClientToServer, nil
	case "server-to-client":
		return faults.ServerToClient, nil
	default:
		return 0, fmt.Errorf("unknown wire direction %q (want client-to-server or server-to-client)", s)
	}
}

// build constructs the machine a MachineSpec describes. Custom builds
// use the Broadwell per-socket template so generated topologies vary in
// shape (sockets × cores) without varying the memory calibration; their
// bounds keep topology.Build from panicking on an empty machine.
func (m MachineSpec) build(host string) (*topology.Server, error) {
	switch m.Preset {
	case "dual-broadwell":
		return topology.DualBroadwell(), nil
	case "dual-skylake":
		return topology.DualSkylake(), nil
	case "":
		if m.Sockets < 1 || m.Sockets > 4 {
			return nil, fmt.Errorf("%s: sockets %d out of [1,4]", host, m.Sockets)
		}
		if m.CoresPerSocket < 1 || m.CoresPerSocket > 64 {
			return nil, fmt.Errorf("%s: cores per socket %d out of [1,64]", host, m.CoresPerSocket)
		}
		ic := topology.InterconnectSpec{}
		if m.Sockets > 1 {
			ic = topology.DualBroadwell().Interconnect
		}
		ref := topology.DualBroadwell().Sockets[0]
		return topology.Build(
			fmt.Sprintf("custom-%dx%d", m.Sockets, m.CoresPerSocket),
			m.Sockets, m.CoresPerSocket, 2.0, ref.LLC, ref.DRAM, ic), nil
	default:
		return nil, fmt.Errorf("%s: unknown topology preset %q", host, m.Preset)
	}
}

// parseIndex parses a non-negative decimal index in its canonical form,
// the one strconv.Itoa writes: no sign, space, leading zero or trailing
// text.
func parseIndex(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || strconv.Itoa(n) != s {
		return -1, false
	}
	return n, true
}

// ParseSource parses a "<prefix>:<n>" sample source ("workload:0",
// "pf:1"), n in canonical decimal; it returns -1, false for other
// shapes.
func ParseSource(src, prefix string) (int, bool) {
	if rest, ok := strings.CutPrefix(src, prefix+":"); ok {
		return parseIndex(rest)
	}
	return -1, false
}

// ShortestTimeline is the shortest run any runner preset builds a spec
// over (the fuzz runs'; -quick runs 900 ms, full runs 9 s). A dur_ns
// window keeps its length at every timeline while percent windows
// shrink with the run, so whether two windows on one state overlap
// either does not depend on the timeline or becomes true below some
// timeline: a schedule that builds here builds at every preset.
const ShortestTimeline = 120 * time.Millisecond

// Validate is a dry-run Build: it assembles the spec's cluster over
// ShortestTimeline and drains it. Each error names the field or the
// part of the machine at fault.
func (sp *Spec) Validate() error {
	cl, err := sp.Build(ShortestTimeline)
	if err != nil {
		return err
	}
	cl.Drain()
	return nil
}

// Build assembles the cluster a spec describes over a run of length T:
// NIC mode, wiring and datapath, both machines, the netstack parameters
// (retransmission on when Retx is set), the driver parameters (watchdog
// armed when Watchdog is set), and the fault plan with its percent
// offsets resolved against T. It first rejects what the spec alone can
// get wrong: its names, the references between its own parts, percent
// windows and check prerequisites. core.NewClusterE then vets the
// machines and the driver layout, and faults.Arm the fault targets and
// schedule. Last, each counter source must match a metric of the built
// cluster's registry. The caller drains the cluster.
func (sp *Spec) Build(T time.Duration) (*core.Cluster, error) {
	if sp.Name == "" || strings.ContainsAny(sp.Name, " \t\n") {
		return nil, fmt.Errorf("scenario: name %q must be non-empty without whitespace", sp.Name)
	}
	if sp.Sim == nil {
		return nil, fmt.Errorf("scenario %s: sim must be set", sp.Name)
	}
	cl, err := sp.Sim.build(sp.Seed, T)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	return cl, nil
}

// build checks the spec against itself, then assembles its cluster over
// a run of length T.
func (sim *SimSpec) build(seed int64, T time.Duration) (*core.Cluster, error) {
	mode, err := parseMode(sim.Mode)
	if err != nil {
		return nil, err
	}
	wiring, err := parseWiring(sim.Wiring)
	if err != nil {
		return nil, err
	}
	datapath, err := core.ParseDatapath(sim.Datapath)
	if err != nil {
		return nil, err
	}
	server, err := sim.Topology.Server.build("server topology")
	if err != nil {
		return nil, err
	}
	client, err := sim.Topology.Client.build("client topology")
	if err != nil {
		return nil, err
	}
	var stackParams netstack.Params
	if r := sim.Retx; r != nil {
		if r.Timeout <= 0 || r.MaxTries < 1 {
			return nil, fmt.Errorf("retx needs a positive timeout and at least one try")
		}
		stackParams.RetxTimeout = r.Timeout
		stackParams.RetxMaxTries = r.MaxTries
	}
	var drvParams driver.Params
	if sim.Watchdog != nil {
		if sim.Watchdog.Interval <= 0 {
			return nil, fmt.Errorf("watchdog needs a positive interval")
		}
		drvParams.WatchdogInterval = sim.Watchdog.Interval
	}
	if err := sim.checkWorkloads(server, client); err != nil {
		return nil, err
	}
	plan, err := sim.faultPlan(seed, T)
	if err != nil {
		return nil, err
	}
	if err := sim.checkObservations(server.NumNodes()); err != nil {
		return nil, err
	}
	cl, err := core.NewClusterE(core.Config{
		Mode:         mode,
		EnableSG:     sim.EnableSG,
		Wiring:       wiring,
		Datapath:     datapath,
		ServerTopo:   server,
		ClientTopo:   client,
		StackParams:  stackParams,
		DriverParams: drvParams,
		FaultPlan:    plan,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	for i, c := range sim.Counters {
		_, matched, err := cl.Reg.Sum(c.Source)
		if err == nil && matched == 0 {
			err = fmt.Errorf("source %q matches no metric of the built cluster", c.Source)
		}
		if err != nil {
			cl.Drain()
			return nil, fmt.Errorf("counter %d (%s): %v", i, c.Label, err)
		}
	}
	return cl, nil
}

// checkWorkloads vets the workload mix: kinds, ports, sizes, and thread
// placement on the two machines.
func (sim *SimSpec) checkWorkloads(server, client *topology.Server) error {
	if len(sim.Workloads) == 0 {
		return fmt.Errorf("sim needs at least one workload")
	}
	coreOK := func(t *topology.Server, node, idx int) bool {
		return node >= 0 && node < t.NumNodes() && idx >= 0 && idx < len(t.CoresOn(topology.NodeID(node)))
	}
	ports := map[uint16]int{}
	for i, w := range sim.Workloads {
		switch w.Kind {
		case "stream":
			if w.Port == 0 || w.MsgSize <= 0 {
				return fmt.Errorf("workload %d (stream): needs a port and a positive msg size", i)
			}
			if w.SinkName == "" || w.SrcName == "" {
				return fmt.Errorf("workload %d (stream): needs sink and source thread names", i)
			}
			sinkHost, srcHost := server, client
			if w.FromServer {
				sinkHost, srcHost = client, server
			}
			if !coreOK(sinkHost, w.SinkNode, w.SinkCoreIdx) {
				return fmt.Errorf("workload %d (stream): sink core node %d idx %d outside the host", i, w.SinkNode, w.SinkCoreIdx)
			}
			if !coreOK(srcHost, w.SrcNode, w.SrcCoreIdx) {
				return fmt.Errorf("workload %d (stream): source core node %d idx %d outside the host", i, w.SrcNode, w.SrcCoreIdx)
			}
		case "netperf":
			if w.Port == 0 || w.MsgSize <= 0 {
				return fmt.Errorf("workload %d (netperf): needs a port and a positive msg size", i)
			}
			if w.Direction != "rx" && w.Direction != "tx" {
				return fmt.Errorf("workload %d (netperf): direction %q (want rx or tx)", i, w.Direction)
			}
			if w.Instances < 1 {
				return fmt.Errorf("workload %d (netperf): needs at least one instance", i)
			}
			if w.ServerNode < 0 || w.ServerNode >= server.NumNodes() {
				return fmt.Errorf("workload %d (netperf): server node %d outside the host", i, w.ServerNode)
			}
			if w.Instances > len(server.CoresOn(topology.NodeID(w.ServerNode))) ||
				w.Instances > len(client.CoresOn(0)) {
				return fmt.Errorf("workload %d (netperf): %d instances exceed the per-node core pool", i, w.Instances)
			}
		case "memcached":
			if w.Port == 0 {
				return fmt.Errorf("workload %d (memcached): needs a port", i)
			}
			if w.ServerNode < 0 || w.ServerNode >= server.NumNodes() {
				return fmt.Errorf("workload %d (memcached): server node %d outside the host", i, w.ServerNode)
			}
			if w.Clients < 1 || w.Clients > len(client.CoresOn(0)) {
				return fmt.Errorf("workload %d (memcached): %d clients outside the client's node-0 pool", i, w.Clients)
			}
			if w.KeySize <= 0 || w.ValueSize <= 0 || w.Pipeline < 1 {
				return fmt.Errorf("workload %d (memcached): needs positive key/value sizes and pipeline", i)
			}
			if w.SetRatio < 0 || w.SetRatio > 1 {
				return fmt.Errorf("workload %d (memcached): set ratio %v out of [0,1]", i, w.SetRatio)
			}
		default:
			return fmt.Errorf("workload %d: unknown kind %q", i, w.Kind)
		}
		if w.Port != 0 {
			if prev, dup := ports[w.Port]; dup {
				return fmt.Errorf("workloads %d and %d share port %d", prev, i, w.Port)
			}
			ports[w.Port] = i
		}
	}
	return nil
}

// faultPlan converts the percent-based schedule to an absolute
// faults.Plan over a run of length T, rejecting unknown kinds and wire
// directions and windows outside the timeline; faults.Arm checks the
// rest against the assembled cluster. A spec without faults gets an
// empty plan: it arms nothing, and the injector's faults/ counters,
// all 0, still exist for the counter table to read.
func (sim *SimSpec) faultPlan(seed int64, T time.Duration) (*faults.Plan, error) {
	frac := func(pct int) time.Duration { return T * time.Duration(pct) / 100 }
	plan := &faults.Plan{Seed: seed}
	for i, f := range sim.Faults {
		k, err := parseFaultKind(f.Kind)
		if err != nil {
			return nil, fmt.Errorf("fault %d: %v", i, err)
		}
		if f.AtPct < 0 || f.AtPct > 100 {
			return nil, fmt.Errorf("fault %d (%s): at %d%% outside the timeline", i, f.Kind, f.AtPct)
		}
		if f.DurPct < 0 || f.AtPct+f.DurPct > 100 {
			return nil, fmt.Errorf("fault %d (%s): window [%d%%,%d%%] outside the timeline", i, f.Kind, f.AtPct, f.AtPct+f.DurPct)
		}
		if f.DurPct != 0 && f.Dur != 0 {
			return nil, fmt.Errorf("fault %d (%s): dur_pct and dur_ns are exclusive", i, f.Kind)
		}
		ev := faults.Event{
			At:       frac(f.AtPct),
			Kind:     k,
			PF:       f.PF,
			Duration: f.Dur,
			Prob:     f.Prob,
			From:     topology.NodeID(f.From), To: topology.NodeID(f.To),
			BWFactor: f.BWFactor, LatFactor: f.LatFactor,
			Core:  topology.CoreID(f.Core),
			Queue: f.Queue,
			Node:  topology.NodeID(f.Node),
		}
		if f.DurPct > 0 {
			ev.Duration = frac(f.DurPct)
		}
		switch k {
		case faults.Loss, faults.Burst, faults.Corrupt:
			if ev.Dir, err = parseDir(f.Dir); err != nil {
				return nil, fmt.Errorf("fault %d (%s): %v", i, f.Kind, err)
			}
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan, nil
}

// checkObservations vets the observation plan against the spec's own
// parts: samples name forward streams or server PFs, windows are
// ordered, checks have the driver, watchdog, datapath and fault they
// read, and recovery and checks name existing samples, windows and
// workloads.
func (sim *SimSpec) checkObservations(serverPFs int) error {
	streamFwd := func(i int) bool {
		return i >= 0 && i < len(sim.Workloads) &&
			sim.Workloads[i].Kind == "stream" && !sim.Workloads[i].FromServer
	}
	for i, s := range sim.Samples {
		if s.Name == "" {
			return fmt.Errorf("sample %d: needs a name", i)
		}
		if n, ok := ParseSource(s.Source, "workload"); ok {
			if !streamFwd(n) {
				return fmt.Errorf("sample %d: source %q must name a forward stream workload (server-side state)", i, s.Source)
			}
			continue
		}
		if n, ok := ParseSource(s.Source, "pf"); ok {
			if n >= serverPFs {
				return fmt.Errorf("sample %d: server has no PF %d", i, n)
			}
			continue
		}
		return fmt.Errorf("sample %d: unknown source %q", i, s.Source)
	}

	prevEnd := 0
	for i, w := range sim.Windows {
		if w.FromPct < 0 || w.ToPct > 100 || w.FromPct >= w.ToPct {
			return fmt.Errorf("window %d (%s): [%d%%,%d%%) is not a window", i, w.Name, w.FromPct, w.ToPct)
		}
		if w.FromPct < prevEnd {
			return fmt.Errorf("window %d (%s): overlaps or precedes the previous window", i, w.Name)
		}
		prevEnd = w.ToPct
	}

	octo := sim.Mode == "ioctopus"
	hasFault := func(kind string) bool {
		for _, f := range sim.Faults {
			if f.Kind == kind {
				return true
			}
		}
		return false
	}
	if sim.Recovery != nil {
		r := sim.Recovery
		if len(sim.Windows) == 0 || len(sim.Samples) == 0 {
			return fmt.Errorf("recovery needs at least one window and one sample")
		}
		if r.Sample < 0 || r.Sample >= len(sim.Samples) {
			return fmt.Errorf("recovery: no sample %d", r.Sample)
		}
		if r.Threshold <= 0 || r.Threshold > 1 {
			return fmt.Errorf("recovery: threshold %v out of (0,1]", r.Threshold)
		}
	}
	for i, c := range sim.Checks {
		if c.Name == "" {
			return fmt.Errorf("check %d: needs a name", i)
		}
		switch c.Kind {
		case "wire-drops-positive", "no-abandoned", "retx-recovered", "no-errors":
		case "failover-and-back", "reposted":
			if !octo {
				return fmt.Errorf("check %d (%s): needs the ioctopus driver", i, c.Kind)
			}
		case "stream-conserved":
			if c.Workload < 0 || c.Workload >= len(sim.Workloads) || sim.Workloads[c.Workload].Kind != "stream" {
				return fmt.Errorf("check %d (stream-conserved): workload %d is not a stream", i, c.Workload)
			}
		case "progress":
			if c.Workload < 0 || c.Workload >= len(sim.Workloads) {
				return fmt.Errorf("check %d (progress): no workload %d", i, c.Workload)
			}
		case "window-ratio":
			if c.Window < 0 || c.Window >= len(sim.Windows) {
				return fmt.Errorf("check %d (window-ratio): no window %d", i, c.Window)
			}
			if c.Lo > c.Hi {
				return fmt.Errorf("check %d (window-ratio): bounds [%v,%v] inverted", i, c.Lo, c.Hi)
			}
		case "fw-recovered":
			if !hasFault("fw-reset") {
				return fmt.Errorf("check %d (fw-recovered): no fw-reset fault in the schedule", i)
			}
			if sim.Watchdog == nil {
				return fmt.Errorf("check %d (fw-recovered): needs the watchdog armed (the drivers register their recovery counters with it)", i)
			}
		case "queue-recovered":
			if !hasFault("queue-stall") {
				return fmt.Errorf("check %d (queue-recovered): no queue-stall fault in the schedule", i)
			}
			if c.Min > 0 && sim.Watchdog == nil {
				return fmt.Errorf("check %d (queue-recovered): min %d queue resets needs the watchdog armed", i, c.Min)
			}
		case "poller-fallback-and-back":
			if sim.Datapath != "busypoll" {
				return fmt.Errorf("check %d (poller-fallback-and-back): needs the busypoll datapath", i)
			}
			if sim.Watchdog == nil {
				return fmt.Errorf("check %d (poller-fallback-and-back): needs the watchdog armed (nothing else notices a wedged poll loop)", i)
			}
			if !hasFault("poller-stall") {
				return fmt.Errorf("check %d (poller-fallback-and-back): no poller-stall fault in the schedule", i)
			}
		default:
			return fmt.Errorf("check %d: unknown kind %q", i, c.Kind)
		}
	}
	return nil
}

// Parse decodes and validates a JSON spec. Unknown fields are errors:
// a typo in a check name must not silently weaken a scenario.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Load resolves a -scenario argument: a builtin name, or a path to a
// JSON spec file.
func Load(nameOrPath string) (*Spec, error) {
	if sp, ok := builtins[nameOrPath]; ok {
		return sp(), nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("scenario: %q is neither a builtin (%s) nor a readable file: %w",
			nameOrPath, strings.Join(Builtins(), ", "), err)
	}
	return Parse(data)
}

// builtins are the named specs shipped with the repo.
var builtins = map[string]func() *Spec{
	"chaos": Chaos,
}

// Builtins lists the builtin scenario names, sorted.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Chaos is the fault-injection harness: a netperf-style TCP stream into
// the octoNIC server, plus a reverse stream that exercises the Tx side
// of the outage, under a seeded schedule. The PF0 link flap makes the
// octo team driver fail every flow over to PF1, re-post the descriptors
// stranded in PF0's rings, and fail back; the loss and burst windows
// exercise the retransmission timer; the core stall and fabric degrade
// perturb the survivors. Recovery is judged against the pre-fault
// steady state: throughput during the outage (served via PF1) and after
// failback must both return to >=95%, and no segment may be lost end
// to end. `-fig chaos` (a hidden registry id) and `-scenario chaos`
// both run it.
func Chaos() *Spec {
	return &Spec{
		Name:  "chaos",
		Title: "fault injection: PF failover + retransmission under a seeded schedule",
		Seed:  42,
		Sim: &SimSpec{
			Topology: TopoSpec{
				Server: MachineSpec{Preset: "dual-broadwell"},
				Client: MachineSpec{Preset: "dual-broadwell"},
			},
			Mode: "ioctopus",
			Retx: &RetxSpec{Timeout: 2 * time.Millisecond, MaxTries: 12},
			Workloads: []WorkloadSpec{
				{
					Kind: "stream", Port: 7, MsgSize: 65536,
					SinkName: "netserver", SrcName: "netperf",
					SinkNode: 0, SinkCoreIdx: 0, SrcNode: 0, SrcCoreIdx: 0,
				},
				{
					Kind: "stream", FromServer: true, Port: 9, MsgSize: 65536,
					SinkName: "revsink", SrcName: "revsrc",
					SinkNode: 0, SinkCoreIdx: 1, SrcNode: 0, SrcCoreIdx: 1,
				},
			},
			Faults: []FaultSpec{
				{Kind: "link-flap", AtPct: 30, PF: 0, DurPct: 20},
				{Kind: "loss", AtPct: 55, Dir: "client-to-server", Prob: 0.02, DurPct: 10},
				{Kind: "burst", AtPct: 58, Dir: "server-to-client", DurPct: 2},
				{Kind: "stall", AtPct: 62, Core: 0, Dur: time.Millisecond},
				{Kind: "degrade", AtPct: 68, From: 0, To: 1, BWFactor: 0.5, LatFactor: 2, DurPct: 10},
			},
			Samples: []SampleSpec{
				{Name: "delivered Gb/s", Source: "workload:0"},
				{Name: "pf0 Gb/s", Source: "pf:0"},
				{Name: "pf1 Gb/s", Source: "pf:1"},
			},
			Windows: []WindowSpec{
				{Name: "pre-fault", FromPct: 10, ToPct: 30},
				{Name: "PF0 dead, failover", FromPct: 35, ToPct: 48},
				{Name: "recovered", FromPct: 80, ToPct: 100},
			},
			WindowTable: "chaos recovery summary",
			Counters: []CounterSpec{
				{Label: "faults: link transitions", Source: "faults/link_transitions"},
				{Label: "faults: frames dropped on wire", Source: "faults/*_drops"},
				{Label: "nic: frames dropped at dead PF0", Source: "server/nic/pf0/*_link_drops"},
				{Label: "driver: failovers", Source: "server/driver/*/failover/failovers"},
				{Label: "driver: failbacks", Source: "server/driver/*/failover/failbacks"},
				{Label: "driver: descriptors reposted", Source: "server/driver/*/failover/reposted"},
				{Label: "stack: segments retransmitted", Source: "*/stack/retx/retransmits"},
				{Label: "stack: duplicate segments discarded", Source: "server/stack/retx/duplicates"},
				{Label: "stack: segments abandoned", Source: "*/stack/retx/abandoned"},
			},
			CounterTable: "fault and recovery counters",
			Recovery: &RecoverySpec{
				Sample: 0, FaultFromPct: 30, FaultToPct: 80,
				RecoverAfterPct: 50, Threshold: 0.95,
			},
			Checks: []CheckSpec{
				{Kind: "wire-drops-positive", Name: "faults actually dropped traffic"},
				{Kind: "failover-and-back", Name: "driver failed over and back"},
				{Kind: "reposted", Name: "driver reposted stranded Tx descriptors", Min: 1},
				{Kind: "retx-recovered", Name: "retransmission recovered lost segments", Min: 1},
				{Kind: "no-abandoned", Name: "no segment abandoned"},
				{Kind: "stream-conserved", Name: "zero end-to-end loss forward (gap <= in-flight bound)", Workload: 0},
				{Kind: "stream-conserved", Name: "zero end-to-end loss reverse (gap <= in-flight bound)", Workload: 1},
				// The outage can legitimately run faster than pre-fault:
				// failover moves softirq processing to the surviving PF's
				// cores, unloading the single app core.
				{Kind: "window-ratio", Name: "throughput during failover (PF1 serving) vs pre", Window: 1, Lo: 0.95, Hi: 2.5},
				{Kind: "window-ratio", Name: "throughput after recovery vs pre", Window: 2, Lo: 0.95, Hi: 1.10},
			},
		},
	}
}
