package experiments

import (
	"fmt"
	"strings"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/scenario"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// The chaos harness is not a paper figure, so it stays out of IDs()
// (and therefore out of `-fig all`). It is the builtin scenario.Chaos
// spec, so `-fig chaos` and `-scenario chaos` are one code path.
func init() {
	registerHidden("chaos", func(d Durations) *Result {
		r, err := RunSpec(scenario.Chaos(), d)
		if err != nil {
			panic(err) // the builtin is static; failing to build it is a bug
		}
		return r
	})
}

// FuzzDurations returns the windows fuzz runs use: long enough that a
// fault window (≤15% of the timeline) plus its retransmission tail fits
// before the post-fault measurement window, short enough that a CI
// smoke gate can afford dozens of seeds.
func FuzzDurations() Durations {
	return Durations{
		Warmup:      4 * time.Millisecond,
		Measure:     16 * time.Millisecond,
		Timeline:    scenario.ShortestTimeline,
		SampleEvery: 5 * time.Millisecond,
	}
}

// RunSpec is the one scenario runner: it builds the spec's cluster
// (scenario.Spec.Build, which rejects a bad spec with a named error),
// simulates it, and evaluates its declarative tables, notes and checks.
// The run is a pure function of (spec, durations): running the same
// spec twice — or its JSON round-trip — renders byte-identical text,
// which is what the check.sh fuzz gate diffs.
func RunSpec(sp *scenario.Spec, d Durations) (*Result, error) {
	return RunSpecTraced(sp, d, nil)
}

// RunSpecTraced is RunSpec with the spec's engine attached to tr, when
// tr is non-nil, as a trace process named after the spec. Tracing only
// observes: the result renders the same text as an untraced run.
func RunSpecTraced(sp *scenario.Spec, d Durations, tr *sim.Tracer) (*Result, error) {
	run, err := simulate(sp, d, tr)
	if err != nil {
		return nil, err
	}
	defer run.cl.Drain()
	return run.report(sp, d), nil
}

// streamState is one raw-stream workload's byte accounting: tx counted
// by the sending thread, rx by the receiving one. Samplers probe rx of
// forward streams.
type streamState struct {
	tx, rx int64
}

// pctT renders a percent-of-timeline instant as a window label: "0.30T",
// or plain "T" at the end of the run.
func pctT(pct int) string {
	if pct == 100 {
		return "T"
	}
	return fmt.Sprintf("0.%02dT", pct)
}

// specRun is one simulated spec, run to the end of its timeline but not
// drained: the caller reads end-of-run state off the cluster, then
// drains it.
type specRun struct {
	cl *core.Cluster
	// rates are the windowed server NIC receive rates in Gb/s and series
	// the sampled rate series, both in spec order.
	rates  []float64
	series []*metrics.Series
	// Per-workload handles, indexed like the spec's workloads; nil where
	// the workload is of another kind.
	streams    []*streamState
	netperfs   []*workloads.Stream
	memcacheds []*workloads.Memcached
	errs       workloads.ErrList
}

// simulate builds the cluster a spec describes, attaches its engine to
// tr unless tr is nil, drives its workloads and fault plan over the
// timeline, and returns the run undrained.
func simulate(sp *scenario.Spec, d Durations, tr *sim.Tracer) (*specRun, error) {
	T := d.Timeline
	frac := func(pct int) time.Duration { return T * time.Duration(pct) / 100 }

	cl, err := sp.Build(T)
	if err != nil {
		return nil, err
	}
	sim2 := sp.Sim
	if tr != nil {
		tr.Attach(cl.Eng, sp.Name)
	}
	run := &specRun{
		cl:         cl,
		streams:    make([]*streamState, len(sim2.Workloads)),
		netperfs:   make([]*workloads.Stream, len(sim2.Workloads)),
		memcacheds: make([]*workloads.Memcached, len(sim2.Workloads)),
	}

	// Workloads, in spec order. Stream workloads are wired inline so the
	// runner owns per-stream sent/delivered counters; netperf and
	// memcached go through the workloads package.
	for i, w := range sim2.Workloads {
		switch w.Kind {
		case "stream":
			st := &streamState{}
			run.streams[i] = st
			startStream(cl, i, w, st, &run.errs)
		case "netperf":
			dir := workloads.Rx
			if w.Direction == "tx" {
				dir = workloads.Tx
			}
			var serverCores, clientCores []topology.CoreID
			serverPool := cl.Server.Topo.CoresOn(topology.NodeID(w.ServerNode))
			clientPool := cl.Client.Topo.CoresOn(0)
			for k := 0; k < w.Instances; k++ {
				serverCores = append(serverCores, serverPool[k].ID)
				clientCores = append(clientCores, clientPool[k%len(clientPool)].ID)
			}
			run.netperfs[i] = workloads.StartStream(cl, workloads.StreamConfig{
				MsgSize:     w.MsgSize,
				Direction:   dir,
				ServerCores: serverCores,
				ClientCores: clientCores,
				ServerIP:    core.IPServerPF0,
				Port:        w.Port,
			})
		case "memcached":
			cfg := workloads.DefaultMemcachedConfig(topology.NodeID(w.ServerNode), cl)
			cfg.ClientCores = cfg.ClientCores[:w.Clients]
			cfg.KeySize = w.KeySize
			cfg.ValueSize = w.ValueSize
			cfg.SetRatio = w.SetRatio
			cfg.Port = w.Port
			if w.OpCost > 0 {
				cfg.OpCost = w.OpCost
			}
			cfg.Pipeline = w.Pipeline
			run.memcacheds[i] = workloads.StartMemcached(cl, cfg)
		}
	}

	// Sampled series, in spec order.
	run.series = make([]*metrics.Series, len(sim2.Samples))
	if len(sim2.Samples) > 0 {
		sampler := metrics.NewSampler(cl.Eng, d.SampleEvery)
		for i, s := range sim2.Samples {
			run.series[i] = sampler.TrackRate(s.Name, sampleProbe(cl, s.Source, run.streams))
		}
		sampler.Start()
	}

	// Windowed aggregate NIC receive rates, each bracketed by engine
	// runs; the tail of the timeline runs after the last window so
	// counters are read at T.
	var cursor time.Duration
	advance := func(to time.Duration) {
		cl.Run(to - cursor)
		cursor = to
	}
	run.rates = make([]float64, len(sim2.Windows))
	for i, w := range sim2.Windows {
		advance(frac(w.FromPct))
		rx := openWindow(cl, patNICRx)
		advance(frac(w.ToPct))
		run.rates[i] = rx.delta() * 8 / (frac(w.ToPct) - frac(w.FromPct)).Seconds() / 1e9
	}
	if cursor < T {
		advance(T)
	}
	return run, nil
}

// inFlightBound is how far a stream's receiver may trail its sender
// with nothing lost: the send window plus the receive buffer.
func (run *specRun) inFlightBound() int64 {
	return netstack.SendWindow + netstack.RxBufBytes
}

// report evaluates the spec's declarative output against a finished
// run: the window and counter tables, the sampled series, the recovery
// and stream notes, and the checks, each in spec order.
func (run *specRun) report(sp *scenario.Spec, d Durations) *Result {
	sim2 := sp.Sim
	cl, rates, series, streams := run.cl, run.rates, run.series, run.streams
	T := d.Timeline
	frac := func(pct int) time.Duration { return T * time.Duration(pct) / 100 }
	r := &Result{ID: sp.Name, Title: sp.Title}

	// Dip depth and recovery time from the sampled series.
	dip, recoverAt := 0.0, -1.0
	if rec := sim2.Recovery; rec != nil {
		pre := rates[0]
		dip = pre
		s := series[rec.Sample]
		for i, tm := range s.Times {
			v := s.Values[i]
			if tm > sim.Time(frac(rec.FaultFromPct)) && tm < sim.Time(frac(rec.FaultToPct)) && v < dip {
				dip = v
			}
			if recoverAt < 0 && tm >= sim.Time(frac(rec.RecoverAfterPct)) && v >= rec.Threshold*pre {
				recoverAt = tm.Seconds() - frac(rec.RecoverAfterPct).Seconds()
			}
		}
	}

	if len(sim2.Windows) > 0 {
		t := metrics.NewTable(sim2.WindowTable, "window", "Gb/s", "vs pre")
		for i, w := range sim2.Windows {
			label := fmt.Sprintf("%s [%s,%s)", w.Name, pctT(w.FromPct), pctT(w.ToPct))
			if i == 0 {
				t.AddRow(label, rates[i], 1.0)
			} else {
				t.AddRow(label, rates[i], ratio(rates[i], rates[0]))
			}
		}
		r.Tables = append(r.Tables, t)
	}

	if len(sim2.Counters) > 0 {
		ct := metrics.NewTable(sim2.CounterTable, "counter", "value")
		for _, c := range sim2.Counters {
			v, _, _ := cl.Reg.Sum(c.Source) // Build vetted every source
			ct.AddRow(c.Label, v)
		}
		r.Tables = append(r.Tables, ct)
	}

	r.Series = append(r.Series, series...)

	if sim2.Recovery != nil {
		r.Notes = append(r.Notes,
			fmt.Sprintf("seed %d; deepest delivered-rate sample during faults %.1f Gb/s (%.0f%% of pre)",
				sp.Seed, dip, 100*ratio(dip, rates[0])),
			fmt.Sprintf("recovery time after failback: %.1f ms (first sample back above %.0f%% of pre)",
				recoverAt*1e3, 100*sim2.Recovery.Threshold))
	}
	var fwdTx, fwdRx, revTx, revRx int64
	var haveFwd, haveRev bool
	for i, w := range sim2.Workloads {
		if w.Kind != "stream" {
			continue
		}
		if w.FromServer {
			haveRev = true
			revTx += streams[i].tx
			revRx += streams[i].rx
		} else {
			haveFwd = true
			fwdTx += streams[i].tx
			fwdRx += streams[i].rx
		}
	}
	if haveFwd && haveRev {
		r.Notes = append(r.Notes,
			fmt.Sprintf("forward sent %d bytes, delivered %d; reverse sent %d, delivered %d; gaps are in-flight/buffered data",
				fwdTx, fwdRx, revTx, revRx))
	}
	r.Notes = append(r.Notes, sim2.Notes...)

	// Declarative checks, in spec order.
	inFlightBound := run.inFlightBound()
	netperfs, memcacheds := run.netperfs, run.memcacheds
	workloadErrs := run.errs.All()
	for i := range sim2.Workloads {
		if netperfs[i] != nil {
			workloadErrs = append(workloadErrs, netperfs[i].Errors()...)
		}
		if memcacheds[i] != nil {
			workloadErrs = append(workloadErrs, memcacheds[i].Errors()...)
		}
	}
	checkTrue := r.checkTrue
	sawNoErrors := false
	for _, c := range sim2.Checks {
		switch c.Kind {
		case "wire-drops-positive":
			wire, link := count(cl, patWireDrops), count(cl, patLinkDrops)
			checkTrue(c.Name, wire+link > 0,
				fmt.Sprintf("%d frames killed (wire %d, dead PF %d)", wire+link, wire, link))
		case "failover-and-back":
			failovers, failbacks := count(cl, patFailovers), count(cl, patFailbacks)
			checkTrue(c.Name, failovers >= 1 && failbacks >= 1,
				fmt.Sprintf("failovers=%d failbacks=%d", failovers, failbacks))
		case "reposted":
			reposted := count(cl, patReposted)
			checkTrue(c.Name, reposted >= c.Min, fmt.Sprintf("reposted=%d", reposted))
		case "retx-recovered":
			retx := count(cl, patRetransmits)
			checkTrue(c.Name, retx >= c.Min, fmt.Sprintf("retransmits=%d", retx))
		case "no-abandoned":
			abandoned := count(cl, patAbandoned)
			checkTrue(c.Name, abandoned == 0, fmt.Sprintf("abandoned=%d", abandoned))
		case "stream-conserved":
			st := streams[c.Workload]
			checkTrue(c.Name, st.tx-st.rx <= inFlightBound,
				fmt.Sprintf("gap=%d bound=%d", st.tx-st.rx, inFlightBound))
		case "progress":
			var done int64
			switch {
			case streams[c.Workload] != nil:
				done = streams[c.Workload].rx
			case netperfs[c.Workload] != nil:
				done = netperfs[c.Workload].Bytes()
			case memcacheds[c.Workload] != nil:
				done = int64(memcacheds[c.Workload].Transactions())
			}
			checkTrue(c.Name, done > 0, fmt.Sprintf("delivered=%d", done))
		case "window-ratio":
			r.check(c.Name, ratio(rates[c.Window], rates[0]), c.Lo, c.Hi)
		case "no-errors":
			sawNoErrors = true
			detail := "0 errors"
			if len(workloadErrs) > 0 {
				detail = strings.Join(workloadErrs, "; ")
			}
			checkTrue(c.Name, len(workloadErrs) == 0, detail)
		case "fw-recovered":
			resets, replayed := count(cl, patFwResets), count(cl, patRulesReplayed)
			checkTrue(c.Name, resets >= 1 && replayed >= 1,
				fmt.Sprintf("fw resets=%d rules replayed=%d", resets, replayed))
		case "queue-recovered":
			held, resets := heldCompletions(cl), count(cl, patQueueResets)
			checkTrue(c.Name, held == 0 && resets >= c.Min,
				fmt.Sprintf("held completions=%d queue resets=%d", held, resets))
		case "poller-fallback-and-back":
			fallbacks, reenters := count(cl, patPollerFallbacks), count(cl, patPollerReenters)
			checkTrue(c.Name, fallbacks >= 1 && reenters >= 1,
				fmt.Sprintf("fallbacks=%d reenters=%d", fallbacks, reenters))
		}
	}
	// A workload failure must fail the run even when the spec's author
	// forgot to ask for it: a fuzzed fault plan that kills a connect
	// phase produces a failed check, never a silently passing run.
	if len(workloadErrs) > 0 && !sawNoErrors {
		checkTrue("workload errors", false, strings.Join(workloadErrs, "; "))
	}
	return r
}

// startStream wires one raw-stream workload: a Listen+sink thread on
// the receiving host and a Dial+send loop on the transmitting host,
// with explicit core placement from the spec.
func startStream(cl *core.Cluster, idx int, w scenario.WorkloadSpec, st *streamState, errs *workloads.ErrList) {
	sinkHost, srcHost := cl.Server, cl.Client
	dialIP := core.IPServerPF0
	if w.FromServer {
		sinkHost, srcHost = cl.Client, cl.Server
		dialIP = core.IPClient
	}
	sinkCore := sinkHost.Topo.CoresOn(topology.NodeID(w.SinkNode))[w.SinkCoreIdx].ID
	srcCore := srcHost.Topo.CoresOn(topology.NodeID(w.SrcNode))[w.SrcCoreIdx].ID

	sinkHost.Stack.Listen(w.Port, func(s *netstack.Socket) {
		sinkHost.Kernel.Spawn(w.SinkName, sinkCore, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				st.rx += n
			}
		})
	})
	srcHost.Kernel.Spawn(w.SrcName, srcCore, func(th *kernel.Thread) {
		sock, err := srcHost.Stack.Dial(th, dialIP, w.Port, eth.ProtoTCP)
		if err != nil {
			errs.Add("workload %d (%s): dial: %v", idx, w.SrcName, err)
			return
		}
		for {
			sock.Send(th, w.MsgSize)
			st.tx += w.MsgSize
		}
	})
}

// sampleProbe builds the closure one SampleSpec tracks.
func sampleProbe(cl *core.Cluster, source string, streams []*streamState) func() float64 {
	if n, ok := scenario.ParseSource(source, "workload"); ok {
		st := streams[n]
		return func() float64 { return float64(st.rx) * 8 / 1e9 }
	}
	n, _ := scenario.ParseSource(source, "pf")
	pf := cl.Server.NIC.PF(n)
	return func() float64 { return pf.RxBytes() * 8 / 1e9 }
}

// The registry patterns the runner's checks, devchaos and pmd read
// (metrics.Registry.Sum). A check reads 0 where its pattern matches
// nothing, so TestRunnerPatternsMatch requires each to match a metric
// of a cluster with every optional scope armed.
const (
	patWireDrops       = "faults/*_drops"
	patLinkDrops       = "server/nic/pf*/*_link_drops"
	patFailovers       = "server/driver/*/failover/failovers"
	patFailbacks       = "server/driver/*/failover/failbacks"
	patReposted        = "server/driver/*/failover/reposted"
	patRetransmits     = "*/stack/retx/retransmits"
	patAbandoned       = "*/stack/retx/abandoned"
	patFwResets        = "server/driver/*/fw/recovery/resets"
	patRulesReplayed   = "server/driver/*/fw/recovery/rules_replayed"
	patQueueResets     = "server/driver/*/watchdog/queue_resets"
	patFwReprograms    = "server/driver/*/watchdog/fw_reprograms"
	patPFDead          = "server/driver/*/watchdog/pf_dead"
	patPFRecovered     = "server/driver/*/watchdog/pf_recovered"
	patPollerFallbacks = "server/driver/*/watchdog/poller_fallbacks"
	patPollerReenters  = "server/driver/*/watchdog/poller_reenters"
	patPolls           = "server/driver/*/pmd/polls"
	patEmptyPolls      = "server/driver/*/pmd/empty_polls"
	patBursts          = "server/driver/*/pmd/bursts"
	patBurstOccupancy  = "server/driver/*/pmd/burst_occupancy"
)

// count sums the counters one of the runner's own patterns matches; the
// patterns are well formed, so Sum returns no error.
func count(cl *core.Cluster, pattern string) uint64 {
	total, _, _ := cl.Reg.Sum(pattern)
	return uint64(total)
}

// heldCompletions counts writebacks still stranded device-side across
// every server NIC queue — the queue-recovered check's failure signal.
func heldCompletions(cl *core.Cluster) int {
	var held int
	for _, pf := range cl.Server.NIC.PFs() {
		for _, q := range pf.RxQueues() {
			held += q.HeldCompletions()
		}
		for _, q := range pf.TxQueues() {
			held += q.HeldCompletions()
		}
	}
	return held
}
