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
// the tick period; Ticks is how many consecutive no-progress samples
// declare a queue stuck (0 = the driver default of 2); Backoff is the
// post-action grace period (0 = 2×Interval, doubling per ladder
// stage). Durations are absolute, like RetxSpec, because recovery
// cadence is device physics, not a fraction of the run.
type WatchdogSpec struct {
	Interval time.Duration `json:"interval_ns"`
	Ticks    int           `json:"ticks,omitempty"`
	Backoff  time.Duration `json:"backoff_ns,omitempty"`
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
// 1 ms core stall). Kind and Dir use the faults package's String names.
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

// CounterSpec is one row of the counter table. Sources: the fault
// injector ("faults/link_transitions", "faults/wire_drops"), the
// server NIC ("nic/pf<i>/link_drops", "nic/link_drops"), the octo
// driver ("driver/failovers", "driver/failbacks", "driver/reposted"),
// and the retransmission layer ("stack/retx" both hosts,
// "server/stack/dup", "stack/abandoned" both hosts).
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
//     steering rules were replayed (needs a fw-reset fault).
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
// shape (sockets × cores) without varying the memory calibration.
func (m MachineSpec) build() (*topology.Server, error) {
	switch m.Preset {
	case "dual-broadwell":
		return topology.DualBroadwell(), nil
	case "dual-skylake":
		return topology.DualSkylake(), nil
	case "":
		ic := topology.InterconnectSpec{}
		if m.Sockets > 1 {
			ic = topology.DualBroadwell().Interconnect
		}
		ref := topology.DualBroadwell().Sockets[0]
		return topology.Build(
			fmt.Sprintf("custom-%dx%d", m.Sockets, m.CoresPerSocket),
			m.Sockets, m.CoresPerSocket, 2.0, ref.LLC, ref.DRAM, ic), nil
	default:
		return nil, fmt.Errorf("unknown topology preset %q", m.Preset)
	}
}

// validateMachine rejects unbuildable machines before build() panics.
func (m MachineSpec) validate(host string) error {
	switch m.Preset {
	case "dual-broadwell", "dual-skylake":
		return nil
	case "":
		if m.Sockets < 1 || m.Sockets > 4 {
			return fmt.Errorf("%s: sockets %d out of [1,4]", host, m.Sockets)
		}
		if m.CoresPerSocket < 1 || m.CoresPerSocket > 64 {
			return fmt.Errorf("%s: cores per socket %d out of [1,64]", host, m.CoresPerSocket)
		}
		return nil
	default:
		return fmt.Errorf("%s: unknown topology preset %q", host, m.Preset)
	}
}

// ParseSource parses a "<prefix>:<n>" sample source ("workload:0",
// "pf:1"); it returns -1, false for other shapes.
func ParseSource(src, prefix string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(src, prefix+":%d", &n); err == nil {
		return n, true
	}
	return -1, false
}

// Validate rejects malformed specs with an error naming the field, so
// a bad JSON file (or a generator bug) fails before a cluster is ever
// assembled. It builds the topologies to range-check core and PF
// references, and replays the fault schedule through
// faults.(*Plan).ValidateSchedule to reject windows racing for the
// same state.
func (sp *Spec) Validate() error {
	if sp.Name == "" || strings.ContainsAny(sp.Name, " \t\n") {
		return fmt.Errorf("scenario: name %q must be non-empty without whitespace", sp.Name)
	}
	if sp.Sim == nil {
		return fmt.Errorf("scenario %s: sim must be set", sp.Name)
	}
	sim := sp.Sim
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s", sp.Name, fmt.Sprintf(format, args...))
	}
	if _, err := parseMode(sim.Mode); err != nil {
		return fail("%v", err)
	}
	if _, err := parseWiring(sim.Wiring); err != nil {
		return fail("%v", err)
	}
	if err := sim.Topology.Server.validate("server topology"); err != nil {
		return fail("%v", err)
	}
	if err := sim.Topology.Client.validate("client topology"); err != nil {
		return fail("%v", err)
	}
	server, err := sim.Topology.Server.build()
	if err != nil {
		return fail("%v", err)
	}
	client, err := sim.Topology.Client.build()
	if err != nil {
		return fail("%v", err)
	}
	serverPFs := server.NumNodes() // one PF per socket of the bifurcated card

	dp, err := core.ParseDatapath(sim.Datapath)
	if err != nil {
		return fail("%v", err)
	}
	if dp == core.DatapathBusyPoll {
		// The poll loop owns the last core of every server node; a
		// one-core node would leave nothing for workload threads.
		for n := 0; n < server.NumNodes(); n++ {
			if len(server.CoresOn(topology.NodeID(n))) < 2 {
				return fail("datapath busypoll needs >= 2 cores per server node (node %d has %d)",
					n, len(server.CoresOn(topology.NodeID(n))))
			}
		}
	}

	if sim.Retx != nil && (sim.Retx.Timeout <= 0 || sim.Retx.MaxTries < 1) {
		return fail("retx needs a positive timeout and at least one try")
	}
	if sim.Watchdog != nil {
		if sim.Watchdog.Interval <= 0 {
			return fail("watchdog needs a positive interval")
		}
		if sim.Watchdog.Ticks < 0 || sim.Watchdog.Backoff < 0 {
			return fail("watchdog ticks and backoff must be non-negative")
		}
	}

	if len(sim.Workloads) == 0 {
		return fail("sim needs at least one workload")
	}
	coreOK := func(t *topology.Server, node, idx int) bool {
		return node >= 0 && node < t.NumNodes() && idx >= 0 && idx < len(t.CoresOn(topology.NodeID(node)))
	}
	ports := map[uint16]int{}
	for i, w := range sim.Workloads {
		switch w.Kind {
		case "stream":
			if w.Port == 0 || w.MsgSize <= 0 {
				return fail("workload %d (stream): needs a port and a positive msg size", i)
			}
			if w.SinkName == "" || w.SrcName == "" {
				return fail("workload %d (stream): needs sink and source thread names", i)
			}
			sinkHost, srcHost := server, client
			if w.FromServer {
				sinkHost, srcHost = client, server
			}
			if !coreOK(sinkHost, w.SinkNode, w.SinkCoreIdx) {
				return fail("workload %d (stream): sink core node %d idx %d outside the host", i, w.SinkNode, w.SinkCoreIdx)
			}
			if !coreOK(srcHost, w.SrcNode, w.SrcCoreIdx) {
				return fail("workload %d (stream): source core node %d idx %d outside the host", i, w.SrcNode, w.SrcCoreIdx)
			}
		case "netperf":
			if w.Port == 0 || w.MsgSize <= 0 {
				return fail("workload %d (netperf): needs a port and a positive msg size", i)
			}
			if w.Direction != "rx" && w.Direction != "tx" {
				return fail("workload %d (netperf): direction %q (want rx or tx)", i, w.Direction)
			}
			if w.Instances < 1 {
				return fail("workload %d (netperf): needs at least one instance", i)
			}
			if w.ServerNode < 0 || w.ServerNode >= server.NumNodes() {
				return fail("workload %d (netperf): server node %d outside the host", i, w.ServerNode)
			}
			if w.Instances > len(server.CoresOn(topology.NodeID(w.ServerNode))) ||
				w.Instances > len(client.CoresOn(0)) {
				return fail("workload %d (netperf): %d instances exceed the per-node core pool", i, w.Instances)
			}
		case "memcached":
			if w.Port == 0 {
				return fail("workload %d (memcached): needs a port", i)
			}
			if w.ServerNode < 0 || w.ServerNode >= server.NumNodes() {
				return fail("workload %d (memcached): server node %d outside the host", i, w.ServerNode)
			}
			if w.Clients < 1 || w.Clients > len(client.CoresOn(0)) {
				return fail("workload %d (memcached): %d clients outside the client's node-0 pool", i, w.Clients)
			}
			if w.KeySize <= 0 || w.ValueSize <= 0 || w.Pipeline < 1 {
				return fail("workload %d (memcached): needs positive key/value sizes and pipeline", i)
			}
			if w.SetRatio < 0 || w.SetRatio > 1 {
				return fail("workload %d (memcached): set ratio %v out of [0,1]", i, w.SetRatio)
			}
		default:
			return fail("workload %d: unknown kind %q", i, w.Kind)
		}
		if w.Port != 0 {
			if prev, dup := ports[w.Port]; dup {
				return fail("workloads %d and %d share port %d", prev, i, w.Port)
			}
			ports[w.Port] = i
		}
	}

	for i, f := range sim.Faults {
		k, err := parseFaultKind(f.Kind)
		if err != nil {
			return fail("fault %d: %v", i, err)
		}
		if f.AtPct < 0 || f.AtPct > 100 {
			return fail("fault %d (%s): at %d%% outside the timeline", i, f.Kind, f.AtPct)
		}
		if f.DurPct < 0 || f.AtPct+f.DurPct > 100 {
			return fail("fault %d (%s): window [%d%%,%d%%] outside the timeline", i, f.Kind, f.AtPct, f.AtPct+f.DurPct)
		}
		switch k {
		case faults.LinkDown, faults.LinkUp, faults.LinkFlap:
			if f.PF < 0 || f.PF >= serverPFs {
				return fail("fault %d (%s): server has no PF %d", i, f.Kind, f.PF)
			}
		case faults.Loss, faults.Burst, faults.Corrupt:
			if _, err := parseDir(f.Dir); err != nil {
				return fail("fault %d (%s): %v", i, f.Kind, err)
			}
			if f.Prob < 0 || f.Prob > 1 {
				return fail("fault %d (%s): probability %v out of [0,1]", i, f.Kind, f.Prob)
			}
		case faults.Degrade:
			if f.From == f.To || f.From < 0 || f.To < 0 || f.From >= server.NumNodes() || f.To >= server.NumNodes() {
				return fail("fault %d (degrade): link %d->%d is not a server fabric link", i, f.From, f.To)
			}
			if f.BWFactor <= 0 || f.LatFactor <= 0 {
				return fail("fault %d (degrade): factors must be positive", i)
			}
		case faults.Stall:
			if f.Core < 0 || f.Core >= server.NumCores() {
				return fail("fault %d (stall): server has no core %d", i, f.Core)
			}
		case faults.FirmwareReset:
			// Any cabled server NIC can take a firmware reset; nothing to
			// range-check.
		case faults.QueueStall:
			if f.PF < 0 || f.PF >= serverPFs {
				return fail("fault %d (queue-stall): server has no PF %d", i, f.PF)
			}
			// Per-PF queue counts are a driver-layout fact: the standard
			// driver gives its PF one queue pair per machine core, the octo
			// driver gives each PF one pair per core of its own node.
			queues := server.NumCores()
			if sim.Mode == "ioctopus" {
				queues = len(server.CoresOn(topology.NodeID(f.PF)))
			}
			if f.Queue < 0 || f.Queue >= queues {
				return fail("fault %d (queue-stall): PF %d has queues 0..%d in %s mode, not %d",
					i, f.PF, queues-1, sim.Mode, f.Queue)
			}
			if f.DurPct <= 0 && f.Dur <= 0 {
				return fail("fault %d (queue-stall): needs a positive duration (the stall is a window)", i)
			}
		case faults.PollerStall:
			if dp != core.DatapathBusyPoll {
				return fail("fault %d (poller-stall): datapath %q runs no dedicated poll loops (only busypoll does; interrupt and hybrid deliver completions via NAPI)",
					i, sim.Datapath)
			}
			if f.Node < 0 || f.Node >= server.NumNodes() {
				return fail("fault %d (poller-stall): server has no node %d", i, f.Node)
			}
			if f.DurPct <= 0 && f.Dur <= 0 {
				return fail("fault %d (poller-stall): needs a positive duration (the wedge is a window)", i)
			}
		}
	}
	// Structural schedule checks (overlapping windows racing for one
	// piece of state) on a nominal timeline; the authoritative re-check
	// with real durations happens when the plan is armed.
	if plan := sim.faultPlan(sp.Seed, 100*time.Second); plan != nil {
		if err := plan.ValidateSchedule(); err != nil {
			return fail("%v", err)
		}
	}

	streamFwd := func(i int) bool {
		return i >= 0 && i < len(sim.Workloads) &&
			sim.Workloads[i].Kind == "stream" && !sim.Workloads[i].FromServer
	}
	for i, s := range sim.Samples {
		if s.Name == "" {
			return fail("sample %d: needs a name", i)
		}
		if n, ok := ParseSource(s.Source, "workload"); ok {
			if !streamFwd(n) {
				return fail("sample %d: source %q must name a forward stream workload (server-side state)", i, s.Source)
			}
			continue
		}
		if n, ok := ParseSource(s.Source, "pf"); ok {
			if n < 0 || n >= serverPFs {
				return fail("sample %d: server has no PF %d", i, n)
			}
			continue
		}
		return fail("sample %d: unknown source %q", i, s.Source)
	}

	prevEnd := 0
	for i, w := range sim.Windows {
		if w.FromPct < 0 || w.ToPct > 100 || w.FromPct >= w.ToPct {
			return fail("window %d (%s): [%d%%,%d%%) is not a window", i, w.Name, w.FromPct, w.ToPct)
		}
		if w.FromPct < prevEnd {
			return fail("window %d (%s): overlaps or precedes the previous window", i, w.Name)
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
	for i, c := range sim.Counters {
		if err := validateCounterSource(c.Source, serverPFs, octo, sim.Watchdog != nil); err != nil {
			return fail("counter %d (%s): %v", i, c.Label, err)
		}
	}
	if sim.Recovery != nil {
		r := sim.Recovery
		if len(sim.Windows) == 0 || len(sim.Samples) == 0 {
			return fail("recovery needs at least one window and one sample")
		}
		if r.Sample < 0 || r.Sample >= len(sim.Samples) {
			return fail("recovery: no sample %d", r.Sample)
		}
		if r.Threshold <= 0 || r.Threshold > 1 {
			return fail("recovery: threshold %v out of (0,1]", r.Threshold)
		}
	}
	for i, c := range sim.Checks {
		if c.Name == "" {
			return fail("check %d: needs a name", i)
		}
		switch c.Kind {
		case "wire-drops-positive", "no-abandoned", "retx-recovered", "no-errors":
		case "failover-and-back", "reposted":
			if !octo {
				return fail("check %d (%s): needs the ioctopus driver", i, c.Kind)
			}
		case "stream-conserved":
			if c.Workload < 0 || c.Workload >= len(sim.Workloads) || sim.Workloads[c.Workload].Kind != "stream" {
				return fail("check %d (stream-conserved): workload %d is not a stream", i, c.Workload)
			}
		case "progress":
			if c.Workload < 0 || c.Workload >= len(sim.Workloads) {
				return fail("check %d (progress): no workload %d", i, c.Workload)
			}
		case "window-ratio":
			if c.Window < 0 || c.Window >= len(sim.Windows) {
				return fail("check %d (window-ratio): no window %d", i, c.Window)
			}
			if c.Lo > c.Hi {
				return fail("check %d (window-ratio): bounds [%v,%v] inverted", i, c.Lo, c.Hi)
			}
		case "fw-recovered":
			if !hasFault("fw-reset") {
				return fail("check %d (fw-recovered): no fw-reset fault in the schedule", i)
			}
		case "queue-recovered":
			if !hasFault("queue-stall") {
				return fail("check %d (queue-recovered): no queue-stall fault in the schedule", i)
			}
			if c.Min > 0 && sim.Watchdog == nil {
				return fail("check %d (queue-recovered): min %d queue resets needs the watchdog armed", i, c.Min)
			}
		case "poller-fallback-and-back":
			if sim.Datapath != "busypoll" {
				return fail("check %d (poller-fallback-and-back): needs the busypoll datapath", i)
			}
			if sim.Watchdog == nil {
				return fail("check %d (poller-fallback-and-back): needs the watchdog armed (nothing else notices a wedged poll loop)", i)
			}
			if !hasFault("poller-stall") {
				return fail("check %d (poller-fallback-and-back): no poller-stall fault in the schedule", i)
			}
		default:
			return fail("check %d: unknown kind %q", i, c.Kind)
		}
	}
	return nil
}

// validateCounterSource vets one counter-table source string.
func validateCounterSource(src string, serverPFs int, octo, watchdog bool) error {
	switch src {
	case "faults/link_transitions", "faults/wire_drops", "nic/link_drops",
		"stack/retx", "server/stack/dup", "stack/abandoned",
		"nic/fw_resets", "driver/fw_resets", "driver/rules_replayed":
		return nil
	case "driver/failovers", "driver/failbacks", "driver/reposted",
		"driver/parked_overflow", "driver/concurrent_ignored":
		if !octo {
			return fmt.Errorf("source %q needs the ioctopus driver", src)
		}
		return nil
	case "watchdog/queue_resets", "watchdog/fw_reprograms", "watchdog/pf_dead",
		"watchdog/poller_fallbacks", "watchdog/poller_reenters":
		if !watchdog {
			return fmt.Errorf("source %q needs the watchdog armed", src)
		}
		return nil
	}
	var pf int
	if _, err := fmt.Sscanf(src, "nic/pf%d/link_drops", &pf); err == nil {
		if pf < 0 || pf >= serverPFs {
			return fmt.Errorf("server has no PF %d", pf)
		}
		return nil
	}
	return fmt.Errorf("unknown source %q", src)
}

// faultPlan converts the percent-based schedule to an absolute
// faults.Plan over the given timeline. Nil when the spec has no
// faults, so a fault-free scenario keeps the cluster's zero-cost
// no-fault hooks.
func (sim *SimSpec) faultPlan(seed int64, T time.Duration) *faults.Plan {
	if len(sim.Faults) == 0 {
		return nil
	}
	frac := func(pct int) time.Duration { return T * time.Duration(pct) / 100 }
	plan := &faults.Plan{Seed: seed}
	for _, f := range sim.Faults {
		k, err := parseFaultKind(f.Kind)
		if err != nil {
			continue // Validate already rejected it
		}
		ev := faults.Event{
			At:   frac(f.AtPct),
			Kind: k,
			PF:   f.PF,
			Prob: f.Prob,
			From: topology.NodeID(f.From), To: topology.NodeID(f.To),
			BWFactor: f.BWFactor, LatFactor: f.LatFactor,
			Core:  topology.CoreID(f.Core),
			Queue: f.Queue,
			Node:  topology.NodeID(f.Node),
		}
		if f.Dir != "" {
			if d, err := parseDir(f.Dir); err == nil {
				ev.Dir = d
			}
		}
		if f.DurPct > 0 {
			ev.Duration = frac(f.DurPct)
		} else {
			ev.Duration = f.Dur
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan
}

// ClusterConfig is the core.Config a valid spec describes over a run of
// length T: NIC mode, wiring and datapath, both topologies, the netstack
// parameters (retransmission on when Retx is set), the driver
// parameters (watchdog armed when Watchdog is set), and the fault plan
// with its percent offsets resolved against T.
func (sp *Spec) ClusterConfig(T time.Duration) (core.Config, error) {
	sim := sp.Sim
	mode, _ := parseMode(sim.Mode)
	wiring, _ := parseWiring(sim.Wiring)
	datapath, _ := core.ParseDatapath(sim.Datapath)
	serverTopo, err := sim.Topology.Server.build()
	if err != nil {
		return core.Config{}, err
	}
	clientTopo, err := sim.Topology.Client.build()
	if err != nil {
		return core.Config{}, err
	}

	stackParams := netstack.DefaultParams()
	if sim.Retx != nil {
		stackParams.RetxTimeout = sim.Retx.Timeout
		stackParams.RetxMaxTries = sim.Retx.MaxTries
	}
	var drvParams *driver.Params
	if sim.Watchdog != nil {
		dp := driver.DefaultParams()
		dp.WatchdogInterval = sim.Watchdog.Interval
		dp.WatchdogTicks = sim.Watchdog.Ticks
		dp.WatchdogBackoff = sim.Watchdog.Backoff
		drvParams = &dp
	}

	return core.Config{
		Mode:         mode,
		EnableSG:     sim.EnableSG,
		Wiring:       wiring,
		Datapath:     datapath,
		ServerTopo:   serverTopo,
		ClientTopo:   clientTopo,
		StackParams:  &stackParams,
		DriverParams: drvParams,
		FaultPlan:    sim.faultPlan(sp.Seed, T),
		Seed:         sp.Seed,
	}, nil
}

// Marshal renders the spec as indented JSON (the on-disk form
// -scenario loads).
func (sp *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(sp, "", "  ")
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
				{Label: "faults: frames dropped on wire", Source: "faults/wire_drops"},
				{Label: "nic: frames dropped at dead PF0", Source: "nic/pf0/link_drops"},
				{Label: "driver: failovers", Source: "driver/failovers"},
				{Label: "driver: failbacks", Source: "driver/failbacks"},
				{Label: "driver: descriptors reposted", Source: "driver/reposted"},
				{Label: "stack: segments retransmitted", Source: "stack/retx"},
				{Label: "stack: duplicate segments discarded", Source: "server/stack/dup"},
				{Label: "stack: segments abandoned", Source: "stack/abandoned"},
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
