package experiments

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/eth"
	"ioctopus/internal/faults"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/sim"
)

// The device-chaos sweep is hidden, like chaos and pmd: not a paper
// figure (`-fig all` stays byte-identical), but runnable by name —
// `ioctobench -fig devchaos -quick` — and pinned by the check.sh
// double-run determinism gate.
func init() { registerHidden("devchaos", runDevChaos) }

// devChaosSeed drives every cell's cluster RNG.
const devChaosSeed = 42

// devCell is one datapath x device-fault measurement cell.
type devCell struct {
	name string
	dp   core.Datapath
	kind string // "fw-reset" | "queue-stall" | "poller-stall" | "escalate"
}

// devCellOut is what one cell run produces.
type devCellOut struct {
	pre, post float64 // windowed NIC Rx Gb/s
	recoverMs float64 // first sample back above 90% of pre, after the fault
	held      int     // completions still stranded device-side at T
	abandoned uint64
	fwdGap    int64 // forward stream tx-rx gap at T
	revGap    int64 // reverse stream tx-rx gap at T
	fwResets  uint64
	replayed  uint64
	failovers uint64
	failbacks uint64
	wd        driver.WatchdogStats
}

// runDevCell drives one cell: the ioctopus cluster under one datapath,
// a single forward TCP stream into core 0 (whose queue pair is PF0
// queue 0 — the queue the stall faults target), the watchdog armed at a
// device-realistic absolute cadence, and one device fault at 0.35T.
//
// Device recovery cadence is physics, not a fraction of the run, so the
// watchdog interval and the fault durations are absolute: the ladder
// climbs the same rungs under -quick and full windows, which is what
// makes the per-cell counter checks duration-independent.
func runDevCell(c devCell, d Durations) devCellOut {
	T := d.Timeline
	frac := func(pct int) time.Duration { return T * time.Duration(pct) / 100 }
	at := frac(35)

	plan := &faults.Plan{Seed: devChaosSeed}
	switch c.kind {
	case "fw-reset":
		plan.Events = []faults.Event{{At: at, Kind: faults.FirmwareReset}}
	case "queue-stall":
		// Short enough that stage 0 (queue reset) heals it before the
		// ladder reaches the PF-dead rung.
		plan.Events = []faults.Event{{At: at, Kind: faults.QueueStall, PF: 0, Queue: 0, Duration: 3 * time.Millisecond}}
	case "poller-stall":
		plan.Events = []faults.Event{{At: at, Kind: faults.PollerStall, Node: 0, Duration: 5 * time.Millisecond}}
	case "escalate":
		// Long enough that the ladder runs out of queue-local rungs and
		// declares PF0 dead: failover, then recovery and failback once
		// the stall clears.
		plan.Events = []faults.Event{{At: at, Kind: faults.QueueStall, PF: 0, Queue: 0, Duration: 30 * time.Millisecond}}
	}

	sp := netstack.DefaultParams()
	sp.RetxTimeout = 2 * time.Millisecond
	sp.RetxMaxTries = 12

	dp := driver.DefaultParams()
	dp.WatchdogInterval = 500 * time.Microsecond

	cl := newCluster(core.Config{
		Mode:         core.ModeIOctopus,
		Datapath:     c.dp,
		StackParams:  &sp,
		DriverParams: &dp,
		FaultPlan:    plan,
		Seed:         devChaosSeed,
	})
	defer cl.Drain()

	var rxBytes, txBytes int64
	cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("devsink", 0, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				rxBytes += n
			}
		})
	})
	cl.Client.Kernel.Spawn("devsrc", 0, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, core.IPServerPF0, 7, eth.ProtoTCP)
		if err != nil {
			panic(err)
		}
		for {
			sock.Send(th, 65536)
			txBytes += 65536
		}
	})

	// A reverse stream transmitted from server core 0 keeps descriptors
	// in flight on PF0 Tx queue 0 — the stall target. ACKs are modeled
	// as latency, not Tx descriptors, so without this the Tx-progress
	// watchdog (like a real tx_timeout) would have nothing to time out.
	var revRx, revTx int64
	cl.Client.Stack.Listen(9, func(s *netstack.Socket) {
		cl.Client.Kernel.Spawn("revsink", cl.Client.Topo.CoresOn(0)[1].ID, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				revRx += n
			}
		})
	})
	cl.Server.Kernel.Spawn("revsrc", 0, func(th *kernel.Thread) {
		sock, err := cl.Server.Stack.Dial(th, core.IPClient, 9, eth.ProtoTCP)
		if err != nil {
			panic(err)
		}
		for {
			sock.Send(th, 65536)
			revTx += 65536
		}
	})

	sampler := metrics.NewSampler(cl.Eng, d.SampleEvery)
	rate := sampler.TrackRate("delivered Gb/s", func() float64 { return float64(rxBytes) * 8 / 1e9 })
	sampler.Start()

	nicRx := func() float64 {
		var total float64
		for _, pf := range cl.Server.NIC.PFs() {
			total += pf.RxBytes()
		}
		return total
	}
	var cursor time.Duration
	advance := func(to time.Duration) {
		cl.Run(to - cursor)
		cursor = to
	}
	window := func(from, to time.Duration) float64 {
		advance(from)
		start := nicRx()
		advance(to)
		return (nicRx() - start) * 8 / (to - from).Seconds() / 1e9
	}
	out := devCellOut{}
	out.pre = window(frac(10), frac(30))
	out.post = window(frac(75), T)
	if cursor < T {
		advance(T)
	}

	// Windowed recovery latency: the first delivered-rate sample at or
	// after the fault window's end that is back above 90% of the
	// pre-fault rate. The device faults are milliseconds against a
	// sample period that may exceed them, so "the very next sample is
	// already healthy" is the expected (and checked) outcome.
	faultEnd := at
	for _, ev := range plan.Events {
		if end := ev.At + ev.Duration; end > faultEnd {
			faultEnd = end
		}
	}
	out.recoverMs = -1
	for i, tm := range rate.Times {
		if tm >= sim.Time(faultEnd) && rate.Values[i] >= 0.9*out.pre {
			out.recoverMs = (tm.Seconds() - faultEnd.Seconds()) * 1e3
			break
		}
	}

	for _, pf := range cl.Server.NIC.PFs() {
		for _, q := range pf.RxQueues() {
			out.held += q.HeldCompletions()
		}
		for _, q := range pf.TxQueues() {
			out.held += q.HeldCompletions()
		}
	}
	out.abandoned = cl.Client.Stack.RetxAbandoned() + cl.Server.Stack.RetxAbandoned()
	out.fwdGap = txBytes - rxBytes
	out.revGap = revTx - revRx
	out.fwResets = cl.Octo.FwResets()
	out.replayed = cl.Octo.RulesReplayed()
	out.failovers = cl.Octo.Failovers()
	out.failbacks = cl.Octo.Failbacks()
	out.wd = cl.Octo.WatchdogStats()
	return out
}

// runDevChaos sweeps device failure domains across datapaths: a
// firmware reset (steering tables wiped, journal replayed), a transient
// queue stall (healed by the watchdog's stage-0 queue reset), a wedged
// busy-poll loop (degraded to interrupt delivery and back), and a
// persistent stall that climbs the full ladder to PF-dead, failover,
// and failback. Every cell must return to the pre-fault rate with
// nothing abandoned and nothing left stranded device-side.
func runDevChaos(d Durations) *Result {
	r := &Result{ID: "devchaos", Title: "device failure domains: firmware/queue faults vs the driver watchdog ladder"}
	cells := []devCell{
		{"intr/fw-reset", core.DatapathInterrupt, "fw-reset"},
		{"busypoll/fw-reset", core.DatapathBusyPoll, "fw-reset"},
		{"hybrid/fw-reset", core.DatapathHybrid, "fw-reset"},
		{"intr/queue-stall", core.DatapathInterrupt, "queue-stall"},
		{"busypoll/queue-stall", core.DatapathBusyPoll, "queue-stall"},
		{"hybrid/queue-stall", core.DatapathHybrid, "queue-stall"},
		{"busypoll/poller-stall", core.DatapathBusyPoll, "poller-stall"},
		{"intr/escalate", core.DatapathInterrupt, "escalate"},
	}
	t := metrics.NewTable("device chaos: recovery by datapath x fault",
		"cell", "pre Gb/s", "post Gb/s", "post/pre",
		"q-resets", "fw-replays", "pf-dead", "fallbacks")
	sp := netstack.DefaultParams()
	inFlightBound := sp.SendWindow + sp.RxBufBytes

	for _, c := range cells {
		out := runDevCell(c, d)
		t.AddRow(c.name, out.pre, out.post, ratio(out.post, out.pre),
			float64(out.wd.QueueResets), float64(out.wd.FwReprograms),
			float64(out.wd.PFDead), float64(out.wd.PollerFallbacks))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: recovered %.1f ms after the fault window (first sample back above 90%% of pre)",
			c.name, out.recoverMs))

		r.check(c.name+": post/pre throughput", ratio(out.post, out.pre), 0.90, 1.15)
		r.checkTrue(c.name+": recovered before the post window",
			out.recoverMs >= 0 && out.recoverMs*1e-3 <= 0.40*d.Timeline.Seconds(),
			fmt.Sprintf("recovery latency %.1f ms", out.recoverMs))
		r.checkTrue(c.name+": nothing abandoned", out.abandoned == 0,
			fmt.Sprintf("abandoned=%d", out.abandoned))
		r.checkTrue(c.name+": nothing stranded device-side", out.held == 0,
			fmt.Sprintf("held completions=%d", out.held))
		r.checkTrue(c.name+": streams conserved (gaps <= in-flight bound)",
			out.fwdGap <= inFlightBound && out.revGap <= inFlightBound,
			fmt.Sprintf("fwd gap=%d rev gap=%d bound=%d", out.fwdGap, out.revGap, inFlightBound))
		switch c.kind {
		case "fw-reset":
			r.checkTrue(c.name+": rules replayed and steering restored",
				out.fwResets >= 1 && out.replayed >= 1,
				fmt.Sprintf("fw resets=%d rules replayed=%d", out.fwResets, out.replayed))
		case "queue-stall":
			r.checkTrue(c.name+": stage-0 queue reset healed the stall",
				out.wd.QueueResets >= 1 && out.wd.PFDead == 0,
				fmt.Sprintf("queue resets=%d pf dead=%d", out.wd.QueueResets, out.wd.PFDead))
		case "poller-stall":
			r.checkTrue(c.name+": fallback to interrupt and back",
				out.wd.PollerFallbacks >= 1 && out.wd.PollerReenters >= 1,
				fmt.Sprintf("fallbacks=%d reenters=%d", out.wd.PollerFallbacks, out.wd.PollerReenters))
		case "escalate":
			r.checkTrue(c.name+": ladder climbed every rung",
				out.wd.QueueResets >= 1 && out.wd.FwReprograms >= 1 && out.wd.PFDead >= 1,
				fmt.Sprintf("queue resets=%d fw reprograms=%d pf dead=%d",
					out.wd.QueueResets, out.wd.FwReprograms, out.wd.PFDead))
			r.checkTrue(c.name+": failed over to PF1 and back",
				out.failovers >= 1 && out.failbacks >= 1 && out.wd.PFRecovered >= 1,
				fmt.Sprintf("failovers=%d failbacks=%d pf recovered=%d",
					out.failovers, out.failbacks, out.wd.PFRecovered))
		}
	}
	r.Tables = append(r.Tables, t)
	return r
}
