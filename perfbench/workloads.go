package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ioctopus"
	"ioctopus/internal/workloads"
)

// size sets how much simulated work one iteration of a workload does.
// Each workload has its own benchmark size; the tests run smaller ones.
type size struct {
	// warmup, measure and slice apply to bulk-stream and poll-rr: each
	// cluster runs warmup then measure of simulated time, in slices of
	// the given length, and the workload's results cover measure only.
	warmup, measure, slice time.Duration
	// ids are the experiments paper-figures runs; nil runs them all.
	ids []string
	// durations are the windows paper-figures and fault-recovery run.
	durations ioctopus.Durations
}

// outcome is what one iteration of a workload produced.
type outcome struct {
	ops      int
	failures []string // one line per failed op
	// layers holds the simulated per-layer values: pure functions of the
	// seed, so two iterations at one seed must agree on every one.
	layers map[string]float64
	// output digests whatever rendered results the workload produced
	// (paper-figures, fault-recovery); it joins the determinism check.
	output string
	// slices is the host time of each slice: a fixed simulated slice on
	// bulk-stream and poll-rr, the pass over every experiment on
	// paper-figures, one RunScenario call on fault-recovery.
	slices []time.Duration
}

// check records one op, failed unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.ops++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// digest summarises the simulated results of an iteration for the
// determinism check.
func (o *outcome) digest() string {
	names := make([]string, 0, len(o.layers))
	for n := range o.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%v\n", n, o.layers[n])
	}
	b.WriteString(o.output)
	return b.String()
}

// job is a workload whose set-up is done and whose first simulated event
// has not run yet.
type job interface {
	run(tr *tracer, parent int) *outcome
	// discard releases a job that will not run (extra set-up samples).
	discard()
}

// workload is one named benchmark input.
type workload struct {
	name  string
	setup func(tr *tracer, parent int, seed int64, sz size) (job, error)
	// size is the work one benchmark iteration does.
	size size
}

var allWorkloads = []workload{
	{"bulk-stream", setupBulk, size{warmup: 20 * time.Millisecond, measure: 180 * time.Millisecond, slice: time.Millisecond}},
	// The poll loop costs ~40x the host time per simulated second.
	{"poll-rr", setupPollRR, size{warmup: 2 * time.Millisecond, measure: 18 * time.Millisecond, slice: 100 * time.Microsecond}},
	{"paper-figures", setupFigures, size{durations: ioctopus.QuickDurations()}},
	{"fault-recovery", setupChaos, size{durations: ioctopus.QuickDurations()}},
}

func lookup(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newCluster builds a cluster on the serial engine inside a span.
func newCluster(tr *tracer, parent int, cfg ioctopus.Config) (*ioctopus.Cluster, error) {
	id := tr.begin("core.NewClusterE", parent)
	defer tr.end(id)
	return ioctopus.NewClusterE(cfg)
}

// runSliced advances cl through sz.warmup then sz.measure of simulated
// time in slices, timing each, and calls atMeasure in between.
func runSliced(tr *tracer, parent int, cl *ioctopus.Cluster, sz size, atMeasure func(), out *outcome) {
	phase := func(total time.Duration) {
		for done := time.Duration(0); done < total; {
			step := min(sz.slice, total-done)
			id := tr.begin("Cluster.Run", parent)
			t0 := hostNow()
			cl.Run(step)
			out.slices = append(out.slices, hostSince(t0))
			tr.end(id)
			done += step
		}
	}
	phase(sz.warmup)
	atMeasure()
	phase(sz.measure)
}

// discardCluster releases a cluster that never ran. Drain kills parked
// processes only, and a process whose start event has not run is not
// parked yet, so the cluster first runs its time-zero events.
func discardCluster(cl *ioctopus.Cluster) {
	cl.Run(0)
	cl.Drain()
}

func gbps(bytes int64, d time.Duration) float64 { return float64(bytes) * 8 / d.Seconds() / 1e9 }

// bulk-stream: 64 KB TCP streams on the interrupt datapath. The standard
// firmware serves one Rx stream on a NIC-remote core (the NUDMA case);
// the IOctopus firmware serves one Rx and one Tx stream on the same
// socket's cores, each with its own client cores.

type bulkJob struct {
	sz             size
	std, octo      *ioctopus.Cluster
	stdRx          *workloads.Stream
	octoRx, octoTx *workloads.Stream
}

const bulkMsg = 64 << 10

func setupBulk(tr *tracer, parent int, seed int64, sz size) (job, error) {
	j := &bulkJob{sz: sz}
	var err error
	if j.std, err = newCluster(tr, parent, ioctopus.Config{Mode: ioctopus.ModeStandard, Seed: seed}); err != nil {
		return nil, err
	}
	if j.octo, err = newCluster(tr, parent, ioctopus.Config{Mode: ioctopus.ModeIOctopus, Seed: seed}); err != nil {
		discardCluster(j.std)
		return nil, err
	}
	j.stdRx = startBulk(tr, parent, j.std, ioctopus.Rx)
	j.octoRx = startBulk(tr, parent, j.octo, ioctopus.Rx)
	j.octoTx = startBulk(tr, parent, j.octo, ioctopus.Tx)
	return j, nil
}

// startBulk starts one 64 KB stream served on a core of socket 1, away
// from PF0. Each direction has its own server core, client cores and
// port, so the Rx and Tx streams of one cluster do not share a core:
// left to StartStream's default, both client ends would run on client
// core 0 and starve each other.
func startBulk(tr *tracer, parent int, cl *ioctopus.Cluster, dir workloads.Direction) *workloads.Stream {
	id := tr.begin("workloads.StartStream", parent)
	defer tr.end(id)
	// Rx: netperf on client core 0. Tx: the sink on client core 2, with
	// its softirq/app neighbour core 3.
	serverIdx, clientIdx, port := 0, 0, uint16(12000)
	if dir == ioctopus.Tx {
		serverIdx, clientIdx, port = 1, 2, 12100
	}
	return ioctopus.StartStream(cl, ioctopus.StreamConfig{
		MsgSize:     bulkMsg,
		Direction:   dir,
		ServerCores: []ioctopus.CoreID{cl.Server.Topo.CoresOn(1)[serverIdx].ID},
		ClientCores: []ioctopus.CoreID{cl.Client.Topo.CoresOn(0)[clientIdx].ID},
		ServerIP:    ioctopus.IPServerPF0,
		Port:        port,
	})
}

func (j *bulkJob) discard() {
	discardCluster(j.std)
	discardCluster(j.octo)
}

func (j *bulkJob) run(tr *tracer, parent int) *outcome {
	defer func() {
		j.std.Drain()
		j.octo.Drain()
	}()
	out := &outcome{layers: map[string]float64{}}
	var lc layerCounts
	runSliced(tr, parent, j.std, j.sz, j.stdRx.MeasureStart, out)
	lc.add(tr, parent, j.std)
	runSliced(tr, parent, j.octo, j.sz, func() { j.octoRx.MeasureStart(); j.octoTx.MeasureStart() }, out)
	lc.add(tr, parent, j.octo)
	lc.into(out.layers)

	streams := []struct {
		name, metric string
		w            *workloads.Stream
	}{
		{"standard remote Rx", "workloads.rx_gbps.std_remote", j.stdRx},
		{"ioctopus remote Rx", "workloads.rx_gbps.octo_remote", j.octoRx},
		{"ioctopus remote Tx", "workloads.tx_gbps.octo_remote", j.octoTx},
	}
	for _, s := range streams {
		errs := s.w.Errors()
		out.check(len(errs) == 0 && s.w.Bytes() > 0, "%s: %d bytes, errors %v", s.name, s.w.Bytes(), errs)
		out.layers[s.metric] = gbps(s.w.Bytes(), j.sz.measure)
	}
	std, octo := out.layers["workloads.rx_gbps.std_remote"], out.layers["workloads.rx_gbps.octo_remote"]
	out.check(octo >= std, "shape: ioctopus remote Rx %.2f Gb/s below standard remote Rx %.2f Gb/s", octo, std)
	return out
}

// poll-rr: 64 B ping-pong on the busy-poll datapath under the IOctopus
// firmware: netperf TCP_RR on a NIC-remote core and sockperf-style UDP
// on a local core.

type rrJob struct {
	sz       size
	cl       *ioctopus.Cluster
	tcp, udp *workloads.RR
}

// rrInterruptP50 is the interrupt datapath's TCP_RR median on this
// testbed; a poll-mode pair must beat it.
const rrInterruptP50 = 26 * time.Microsecond

func setupPollRR(tr *tracer, parent int, seed int64, sz size) (job, error) {
	cl, err := newCluster(tr, parent, ioctopus.Config{
		Mode:              ioctopus.ModeIOctopus,
		Datapath:          ioctopus.DatapathBusyPoll,
		DisableCoalescing: true,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	start := func(node ioctopus.NodeID, clientIdx int, port uint16, proto uint8) *workloads.RR {
		id := tr.begin("workloads.StartRR", parent)
		defer tr.end(id)
		return ioctopus.StartRR(cl, ioctopus.RRConfig{
			MsgSize:    64,
			ServerCore: cl.Server.Topo.CoresOn(node)[0].ID,
			ClientCore: cl.Client.Topo.CoresOn(0)[clientIdx].ID,
			ServerIP:   ioctopus.IPServerPF0,
			Port:       port,
			Proto:      proto,
		})
	}
	return &rrJob{
		sz:  sz,
		cl:  cl,
		tcp: start(1, 0, 13000, ioctopus.ProtoTCP),
		udp: start(0, 2, 13100, ioctopus.ProtoUDP),
	}, nil
}

func (j *rrJob) discard() { discardCluster(j.cl) }

func (j *rrJob) run(tr *tracer, parent int) *outcome {
	defer j.cl.Drain()
	out := &outcome{layers: map[string]float64{}}
	runSliced(tr, parent, j.cl, j.sz, func() { j.tcp.MeasureStart(); j.udp.MeasureStart() }, out)
	var lc layerCounts
	lc.add(tr, parent, j.cl)
	lc.into(out.layers)

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, p := range []struct {
		name string
		w    *workloads.RR
	}{{"tcp", j.tcp}, {"udp", j.udp}} {
		p50 := p.w.Hist.Percentile(50)
		errs := p.w.Errors()
		out.check(len(errs) == 0 && p.w.Transactions() > 0 && p50 < rrInterruptP50,
			"%s pair: %d transactions, p50 %v (want < %v), errors %v", p.name, p.w.Transactions(), p50, rrInterruptP50, errs)
		out.layers["workloads.rr_p50_us."+p.name] = us(p50)
		out.layers["workloads.rr_txns"] += float64(p.w.Transactions())
	}
	out.layers["workloads.rr_p99_us.tcp"] = us(j.tcp.Hist.Percentile(99))
	return out
}

// paper-figures: every listed experiment at quick durations, the work of
// `ioctobench -fig all -quick`. The experiments run one after another,
// each fanning its simulation points over nproc workers, so no figure's
// time depends on which other figure it happened to overlap. Each runner
// pins its own seeds, so the benchmark seed does not reach it.

type figuresJob struct {
	ids []string
	d   ioctopus.Durations
}

func setupFigures(tr *tracer, parent int, _ int64, sz size) (job, error) {
	ids := sz.ids
	if ids == nil {
		ids = ioctopus.ExperimentIDs()
	}
	ioctopus.SetParallelism(runtime.NumCPU())
	// The simulations are built inside each figure; what the benchmark
	// prepares is one cluster per NIC mode, so lazy one-time costs are
	// paid here and not by whichever figure happens to run first.
	for _, m := range []ioctopus.NICMode{ioctopus.ModeStandard, ioctopus.ModeIOctopus} {
		cl, err := newCluster(tr, parent, ioctopus.Config{Mode: m})
		if err != nil {
			return nil, err
		}
		discardCluster(cl)
	}
	return &figuresJob{ids: ids, d: sz.durations}, nil
}

func (j *figuresJob) discard() {}

func (j *figuresJob) run(tr *tracer, parent int) *outcome {
	out := &outcome{layers: map[string]float64{}}
	h := fnv.New64a()
	var pass time.Duration
	for _, id := range j.ids {
		sp := tr.begin("experiments.Run:"+id, parent)
		t0 := hostNow()
		res, err := ioctopus.RunExperiment(id, j.d)
		pass += hostSince(t0)
		tr.end(sp)
		if err != nil {
			out.check(false, "%s: %v", id, err)
			continue
		}
		out.check(res.Passed(), "%s: a shape check failed", id)
		h.Write([]byte(res.Render()))
	}
	// The figures differ in length by 40x, so percentiles over them would
	// only track which figure lands at a rank; one slice is the pass.
	out.slices = append(out.slices, pass)
	out.output = fmt.Sprintf("figures %x\n", h.Sum64())
	return out
}

// fault-recovery: the builtin chaos scenario with the benchmark seed
// driving its fault plan, at quick durations.

type chaosJob struct {
	sp *ioctopus.Scenario
	d  ioctopus.Durations
}

func setupChaos(tr *tracer, parent int, seed int64, sz size) (job, error) {
	id := tr.begin("scenario.Load", parent)
	sp, err := ioctopus.LoadScenario("chaos")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sp.Seed = seed
	return &chaosJob{sp: sp, d: sz.durations}, nil
}

func (j *chaosJob) discard() {}

// chaosCounters maps rows of the scenario's counter table to per-layer
// metric names.
var chaosCounters = map[string]string{
	"faults: link transitions":            "faults.link_transitions",
	"faults: frames dropped on wire":      "faults.wire_drops",
	"driver: failovers":                   "driver.failovers",
	"driver: failbacks":                   "driver.failbacks",
	"stack: segments retransmitted":       "netstack.retransmits",
	"stack: duplicate segments discarded": "netstack.duplicates",
}

func (j *chaosJob) run(tr *tracer, parent int) *outcome {
	out := &outcome{layers: map[string]float64{}}
	id := tr.begin("scenario.Run", parent)
	t0 := hostNow()
	res, err := ioctopus.RunScenario(j.sp, j.d)
	out.slices = append(out.slices, hostSince(t0))
	tr.end(id)
	if err != nil {
		out.check(false, "chaos: %v", err)
		return out
	}
	for _, c := range res.Checks {
		out.check(c.Pass, "chaos check %q: %s", c.Name, c.Detail)
	}
	for _, t := range res.Tables {
		for _, row := range t.Cells() {
			if name, ok := chaosCounters[row[0]]; ok && len(row) > 1 {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					out.check(false, "chaos counter %q: %v", row[0], err)
					continue
				}
				out.layers[name] = v
			}
		}
	}
	out.output = res.Render()
	return out
}
