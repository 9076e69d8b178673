package experiments

import (
	"fmt"
	"strings"
	"time"

	"ioctopus/internal/metrics"
	"ioctopus/internal/scenario"
	"ioctopus/internal/sim"
)

// The device-chaos sweep is hidden, like chaos and pmd: not a paper
// figure (`-fig all` stays byte-identical), but runnable by name —
// `ioctobench -fig devchaos -quick` — and pinned by the hidden_quick
// golden.
func init() { registerHidden("devchaos", runDevChaos) }

// devChaosSeed drives every cell's cluster RNG.
const devChaosSeed = 42

// devCell is one datapath x device-fault measurement cell. The name is
// "<datapath>/<fault>"; the fault part selects the cell's recovery
// checks.
type devCell struct {
	name     string
	datapath string
	fault    scenario.FaultSpec
}

// Device recovery cadence is physics, not a fraction of the run, so the
// fault durations (like the watchdog interval) are absolute: the ladder
// climbs the same rungs under -quick and full windows, which is what
// makes the per-cell counter checks duration-independent. Every fault
// lands at 0.35T on PF0 queue 0 / node 0 — core 0's queue pair.
var (
	devFwReset = scenario.FaultSpec{Kind: "fw-reset", AtPct: 35}
	// Short enough that stage 0 (queue reset) heals it before the ladder
	// reaches the PF-dead rung.
	devQueueStall  = scenario.FaultSpec{Kind: "queue-stall", AtPct: 35, Dur: 3 * time.Millisecond}
	devPollerStall = scenario.FaultSpec{Kind: "poller-stall", AtPct: 35, Dur: 5 * time.Millisecond}
	// Long enough that the ladder runs out of queue-local rungs and
	// declares PF0 dead: failover, then recovery and failback once the
	// stall clears.
	devEscalate = scenario.FaultSpec{Kind: "queue-stall", AtPct: 35, Dur: 30 * time.Millisecond}
)

var devCells = []devCell{
	{"intr/fw-reset", "interrupt", devFwReset},
	{"busypoll/fw-reset", "busypoll", devFwReset},
	{"hybrid/fw-reset", "hybrid", devFwReset},
	{"intr/queue-stall", "interrupt", devQueueStall},
	{"busypoll/queue-stall", "busypoll", devQueueStall},
	{"hybrid/queue-stall", "hybrid", devQueueStall},
	{"busypoll/poller-stall", "busypoll", devPollerStall},
	{"intr/escalate", "interrupt", devEscalate},
}

// spec describes the cell as a scenario: the ioctopus cluster under one
// datapath with retransmission on and the watchdog armed at a
// device-realistic 500 µs cadence, a forward TCP stream into server
// core 0 (whose queue pair is the one the stall faults target), and
// the cell's fault. A reverse stream transmitted from server core 0
// keeps descriptors in flight on PF0 Tx queue 0. ACKs are modeled as
// latency, not Tx descriptors, so without it the Tx-progress watchdog
// (like a real tx_timeout) would have nothing to time out.
func (c devCell) spec() *scenario.Spec {
	broadwell := scenario.MachineSpec{Preset: "dual-broadwell"}
	return &scenario.Spec{
		Name:  c.name,
		Title: "device chaos cell " + c.name,
		Seed:  devChaosSeed,
		Sim: &scenario.SimSpec{
			Topology: scenario.TopoSpec{Server: broadwell, Client: broadwell},
			Mode:     "ioctopus",
			Datapath: c.datapath,
			Retx:     &scenario.RetxSpec{Timeout: 2 * time.Millisecond, MaxTries: 12},
			Watchdog: &scenario.WatchdogSpec{Interval: 500 * time.Microsecond},
			Workloads: []scenario.WorkloadSpec{
				{Kind: "stream", Port: 7, MsgSize: 65536, SinkName: "devsink", SrcName: "devsrc"},
				{Kind: "stream", FromServer: true, Port: 9, MsgSize: 65536,
					SinkName: "revsink", SrcName: "revsrc", SinkCoreIdx: 1},
			},
			Faults:  []scenario.FaultSpec{c.fault},
			Samples: []scenario.SampleSpec{{Name: "delivered Gb/s", Source: "workload:0"}},
			Windows: []scenario.WindowSpec{
				{Name: "pre-fault", FromPct: 10, ToPct: 30},
				{Name: "post", FromPct: 75, ToPct: 100},
			},
		},
	}
}

// devCellOut is one judged cell: its summary-table row, its recovery
// note and its checks.
type devCellOut struct {
	row    []any
	note   string
	checks []Check
}

// runDevCell simulates one cell's spec, like RunSpec, and judges the
// finished run. Every cell must return to the pre-fault rate with
// nothing abandoned and nothing left stranded device-side; the fault
// part of the name picks the recovery rungs it must show.
func runDevCell(c devCell, d Durations) devCellOut {
	run, err := simulate(c.spec(), d, nil)
	if err != nil {
		panic(err) // the cell table is static; an invalid cell is a bug
	}
	cl := run.cl
	defer cl.Drain()
	pre, post := run.rates[0], run.rates[1]

	// Windowed recovery latency: the first delivered-rate sample at or
	// after the fault window's absolute end that is back above 90% of
	// the pre-fault rate. The device faults are milliseconds against a
	// sample period that may exceed them, so "the very next sample is
	// already healthy" is the expected (and checked) outcome.
	faultEnd := d.Timeline*time.Duration(c.fault.AtPct)/100 + c.fault.Dur
	rate := run.series[0]
	recoverMs := -1.0
	for i, tm := range rate.Times {
		if tm >= sim.Time(faultEnd) && rate.Values[i] >= 0.9*pre {
			recoverMs = (tm.Seconds() - faultEnd.Seconds()) * 1e3
			break
		}
	}

	r := &Result{}
	held := heldCompletions(cl)
	abandoned := count(cl, patAbandoned)
	fwd, rev := run.streams[0], run.streams[1]
	fwdGap, revGap := fwd.tx-fwd.rx, rev.tx-rev.rx
	inFlightBound := run.inFlightBound()
	queueResets, fwReprograms := count(cl, patQueueResets), count(cl, patFwReprograms)
	pfDead, fallbacks := count(cl, patPFDead), count(cl, patPollerFallbacks)
	r.check(c.name+": post/pre throughput", ratio(post, pre), 0.90, 1.15)
	r.checkTrue(c.name+": recovered before the post window",
		recoverMs >= 0 && recoverMs*1e-3 <= 0.40*d.Timeline.Seconds(),
		fmt.Sprintf("recovery latency %.1f ms", recoverMs))
	r.checkTrue(c.name+": nothing abandoned", abandoned == 0,
		fmt.Sprintf("abandoned=%d", abandoned))
	r.checkTrue(c.name+": nothing stranded device-side", held == 0,
		fmt.Sprintf("held completions=%d", held))
	r.checkTrue(c.name+": streams conserved (gaps <= in-flight bound)",
		fwdGap <= inFlightBound && revGap <= inFlightBound,
		fmt.Sprintf("fwd gap=%d rev gap=%d bound=%d", fwdGap, revGap, inFlightBound))
	_, fault, _ := strings.Cut(c.name, "/")
	switch fault {
	case "fw-reset":
		resets, replayed := count(cl, patFwResets), count(cl, patRulesReplayed)
		r.checkTrue(c.name+": rules replayed and steering restored",
			resets >= 1 && replayed >= 1,
			fmt.Sprintf("fw resets=%d rules replayed=%d", resets, replayed))
	case "queue-stall":
		r.checkTrue(c.name+": stage-0 queue reset healed the stall",
			queueResets >= 1 && pfDead == 0,
			fmt.Sprintf("queue resets=%d pf dead=%d", queueResets, pfDead))
	case "poller-stall":
		reenters := count(cl, patPollerReenters)
		r.checkTrue(c.name+": fallback to interrupt and back",
			fallbacks >= 1 && reenters >= 1,
			fmt.Sprintf("fallbacks=%d reenters=%d", fallbacks, reenters))
	case "escalate":
		r.checkTrue(c.name+": ladder climbed every rung",
			queueResets >= 1 && fwReprograms >= 1 && pfDead >= 1,
			fmt.Sprintf("queue resets=%d fw reprograms=%d pf dead=%d",
				queueResets, fwReprograms, pfDead))
		failovers, failbacks := count(cl, patFailovers), count(cl, patFailbacks)
		pfRecovered := count(cl, patPFRecovered)
		r.checkTrue(c.name+": failed over to PF1 and back",
			failovers >= 1 && failbacks >= 1 && pfRecovered >= 1,
			fmt.Sprintf("failovers=%d failbacks=%d pf recovered=%d",
				failovers, failbacks, pfRecovered))
	}
	return devCellOut{
		row: []any{c.name, pre, post, ratio(post, pre),
			float64(queueResets), float64(fwReprograms),
			float64(pfDead), float64(fallbacks)},
		note: fmt.Sprintf("%s: recovered %.1f ms after the fault window (first sample back above 90%% of pre)",
			c.name, recoverMs),
		checks: r.Checks,
	}
}

// runDevChaos sweeps device failure domains across datapaths: a
// firmware reset (steering tables wiped, journal replayed), a transient
// queue stall (healed by the watchdog's stage-0 queue reset), a wedged
// busy-poll loop (degraded to interrupt delivery and back), and a
// persistent stall that climbs the full ladder to PF-dead, failover,
// and failback. The cells are independent simulations, fanned out like
// any figure's points.
func runDevChaos(d Durations) *Result {
	r := &Result{ID: "devchaos", Title: "device failure domains: firmware/queue faults vs the driver watchdog ladder"}
	t := metrics.NewTable("device chaos: recovery by datapath x fault",
		"cell", "pre Gb/s", "post Gb/s", "post/pre",
		"q-resets", "fw-replays", "pf-dead", "fallbacks")
	for _, out := range points(len(devCells), func(i int) devCellOut { return runDevCell(devCells[i], d) }) {
		t.AddRow(out.row...)
		r.Notes = append(r.Notes, out.note)
		r.Checks = append(r.Checks, out.checks...)
	}
	r.Tables = append(r.Tables, t)
	return r
}
