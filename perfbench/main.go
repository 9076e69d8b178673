// Command perfbench is the simulator's benchmark. It runs one workload
// in this process, times it from outside through the public entry
// points, checks the simulated results, and prints every metric by name
// with its unit; the last line of its output is one JSON object.
//
//	perfbench --workload bulk-stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload's fixed simulated work until
// --seconds of host time are spent and reports the end-to-end metrics
// (medians over the repetitions). With --trace 1 it runs the work once
// untraced, then traced (spans, CPU profile, runtime counters) for the
// rest of --seconds, and reports the per-layer metrics. BENCHMARK.json
// at the repository root declares the workloads and metrics;
// baseline.json beside this file records the first measurements and
// which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ioctopus"
)

// setupSamples and setupBatch size the set-up measurement: the median of
// setupSamples batches, each at least setupBatch of set-ups.
const (
	setupSamples = 21
	setupBatch   = 20 * time.Millisecond
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"slice_p50_ms", "ms"},
	{"slice_p99_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every per-layer metric a traced run emits; a metric
// that does not apply to the workload reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.allocs", "count"},
		{"core.new_cluster_s", "s"},
		{"workloads.start_s", "s"},
		{"workloads.rx_gbps.std_remote", "Gb/s"},
		{"workloads.rx_gbps.octo_remote", "Gb/s"},
		{"workloads.tx_gbps.octo_remote", "Gb/s"},
		{"workloads.rr_p50_us.tcp", "us"},
		{"workloads.rr_p99_us.tcp", "us"},
		{"workloads.rr_p50_us.udp", "us"},
		{"workloads.rr_txns", "count"},
		{"nic.rx_packets", "count"},
		{"nic.tx_sent", "count"},
		{"nic.interrupts", "count"},
		{"nic.rx_drops", "count"},
		{"nic.pool_hit_ratio", "ratio"},
		{"eth.frames", "count"},
		{"pcie.dma_write_bytes", "B"},
		{"pcie.dma_read_bytes", "B"},
		{"pcie.mmio_ops", "count"},
		{"pcie.interrupts", "count"},
		{"memsys.llc_hit_bytes", "B"},
		{"memsys.llc_miss_bytes", "B"},
		{"memsys.llc_hit_ratio", "ratio"},
		{"interconnect.bytes", "B"},
		{"interconnect.mean_latency_ns", "ns"},
		{"kernel.busy_s", "s"},
		{"driver.polls", "count"},
		{"driver.empty_polls", "count"},
		{"driver.useful_poll_ratio", "ratio"},
		{"driver.burst_occupancy", "packets"},
		{"driver.failovers", "count"},
		{"driver.failbacks", "count"},
		{"netstack.rx_segments", "count"},
		{"netstack.retransmits", "count"},
		{"netstack.duplicates", "count"},
		{"faults.link_transitions", "count"},
		{"faults.wire_drops", "count"},
		{"scenario.load_s", "s"},
		{"scenario.run_s", "s"},
		{"metrics.snapshot_s", "s"},
		{"metrics.count", "count"},
		{"trace.overhead_s", "s"},
		{"trace.spans", "count"},
		{"trace.profile_cpu_s", "s"},
		// Per-layer host times are unscaled; multiply by this factor to
		// compare them with the end-to-end metrics.
		{"trace.host_scale", "ratio"},
	}
	for _, p := range append(append([]string(nil), cpuPackages...), "runtime", "other") {
		defs = append(defs, metricDef{p + ".cpu_s", "s"})
	}
	for _, id := range ioctopus.ExperimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return defs
}

// report is what one benchmark run prints.
type report struct {
	attempted, failed int
	failures          []string
	notes             []string
	defs              []metricDef
	values            map[string]float64
}

func (r *report) add(o *outcome) {
	r.attempted += o.ops
	r.failed += len(o.failures)
	r.failures = append(r.failures, o.failures...)
}

func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// iteration is one set-up plus run of a workload.
type iteration struct {
	setup, wall time.Duration
	allocBytes  float64
	out         *outcome
}

func iterate(w workload, tr *tracer, parent int, seed int64, sz size) (*iteration, error) {
	a0 := readRuntime().allocBytes
	t0 := hostNow()
	sp := tr.begin("setup", parent)
	j, err := w.setup(tr, sp, seed, sz)
	tr.end(sp)
	setup := hostSince(t0)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	t1 := hostNow()
	sp = tr.begin("run", parent)
	out := j.run(tr, sp)
	tr.end(sp)
	wall := hostSince(t1)
	return &iteration{setup: setup, wall: wall, allocBytes: readRuntime().allocBytes - a0, out: out}, nil
}

// timed repeats the workload for the budget and reports the end-to-end
// metrics as medians over the repetitions.
func timed(w workload, seed int64, budget time.Duration, sz size) (*report, error) {
	r := &report{defs: endToEnd, values: map[string]float64{}}
	var walls, allocs, rss, calib []float64
	var slices []time.Duration
	var first string
	calibrateN := func(n int) {
		for range n {
			calib = append(calib, calibrate().Seconds())
		}
	}
	start := hostNow()
	calibrateN(calibSamples)
	for {
		// Each iteration starts from a collected heap with its free memory
		// returned to the OS, and measures its own peak resident set.
		t0 := hostNow()
		calibrateN(1)
		debug.FreeOSMemory()
		resetPeakRSS()
		it, err := iterate(w, nil, 0, seed, sz)
		if err != nil {
			return nil, err
		}
		r.add(it.out)
		walls = append(walls, it.wall.Seconds())
		allocs = append(allocs, it.allocBytes/(1<<20))
		rss = append(rss, peakRSSMB())
		slices = append(slices, it.out.slices...)
		if d := it.out.digest(); first == "" {
			first = d
		} else {
			r.check(d == first, "determinism: iteration %d's simulated results differ from iteration 1's", len(walls))
		}
		// Stop when another iteration like this one would overrun.
		if hostSince(start)+hostSince(t0) > budget {
			break
		}
	}
	ms := make([]float64, len(slices))
	for i, s := range slices {
		ms[i] = float64(s) / 1e6
	}
	calibrateN(calibSamples)
	setup, err := setupTime(w, seed, sz)
	if err != nil {
		return nil, err
	}
	// Host times are scaled to the reference host (see calibrate.go).
	scale := hostScale(calib)
	r.values["setup_s"] = setup * scale
	r.values["wall_s"] = median(walls) * scale
	r.values["slice_p50_ms"] = median(ms) * scale
	// The tail reported is p99, or, with fewer than 1000 slices, the
	// highest quantile that still has ten slices beyond it, and never
	// below the median: a run of whole-pass slices reports its median.
	r.values["slice_p99_ms"] = quantile(ms, max(0.5, min(0.99, 1-10/float64(len(ms))))) * scale
	r.values["alloc_mb"] = median(allocs)
	r.values["peak_rss_mb"] = median(rss)
	r.notef("%d iterations, %d slices (%d per iteration); wall min %.4f s, max %.4f s; set-up over %d batches",
		len(walls), len(ms), len(ms)/len(walls), quantile(walls, 0), quantile(walls, 1), setupSamples)
	r.notef("calibration job %.2f ms here, %v on the reference host: host times scaled by %.4f",
		median(calib)*1e3, calibRef, scale)
	return r, nil
}

// setupTime is the median host time of one set-up over setupSamples
// batches, each of as many set-ups as fill setupBatch in a first,
// warm-up batch. A single set-up takes microseconds to milliseconds, too
// short to time alone above scheduling noise. Every batch starts from a
// collected heap and runs with the collector paused, so the time is the
// set-up's own work, not whichever collection happened to land in it
// (its allocation shows in alloc_mb); tearing down the unused jobs is
// not timed.
func setupTime(w workload, seed int64, sz size) (float64, error) {
	batch := func(n int) (time.Duration, int, error) {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var d time.Duration
		i := 0
		for ; i < n || (n == 0 && d < setupBatch); i++ {
			t0 := hostNow()
			j, err := w.setup(nil, 0, seed, sz)
			d += hostSince(t0)
			if err != nil {
				return 0, 0, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			j.discard()
		}
		return d, i, nil
	}
	_, n, err := batch(0)
	if err != nil {
		return 0, err
	}
	samples := make([]float64, setupSamples)
	for i := range samples {
		d, _, err := batch(n)
		if err != nil {
			return 0, err
		}
		samples[i] = d.Seconds() / float64(n)
	}
	return median(samples), nil
}

// traced runs the workload once untraced, as the overhead baseline, then
// traced (spans, CPU profile, runtime counters) for the rest of the
// budget, at least once. Host-time metrics are means per traced
// iteration; simulated counts are the last iteration's, and every
// iteration must match the untraced one.
func traced(w workload, seed int64, budget time.Duration, sz size, outDir string) (*report, error) {
	r := &report{defs: perLayer(), values: map[string]float64{}}
	start := hostNow()
	base, err := iterate(w, nil, 0, seed, sz)
	if err != nil {
		return nil, err
	}
	r.add(base.out)

	var calib []float64
	for range calibSamples {
		calib = append(calib, calibrate().Seconds())
	}
	tr := newTracer()
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var last *iteration
	var wall time.Duration
	n := 0
	for last == nil || hostSince(start)+last.setup+last.wall <= budget {
		root := tr.begin("iteration", 0)
		last, err = iterate(w, tr, root, seed, sz)
		tr.end(root)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		n++
		wall += last.wall
		r.add(last.out)
		r.check(last.out.digest() == base.out.digest(), "determinism: traced iteration %d's simulated results differ from the untraced run's", n)
	}
	pprof.StopCPUProfile()
	rt1 := readRuntime()

	v := r.values
	for k, x := range last.out.layers {
		v[k] = x
	}
	buckets, total, err := cpuBuckets(prof.Bytes())
	if err != nil {
		return nil, err
	}
	per := 1 / float64(n)
	for b, s := range buckets {
		v[b+".cpu_s"] = s * per
	}
	v["trace.profile_cpu_s"] = total * per
	v["runtime.gc_cpu_s"] = (rt1.gcCPU - rt0.gcCPU) * per
	v["runtime.gc_cycles"] = (rt1.gcCycles - rt0.gcCycles) * per
	v["runtime.allocs"] = (rt1.allocObjects - rt0.allocObjects) * per
	mean := wall / time.Duration(n)
	v["sim.host_ns_per_event"] = ratio(float64(base.wall), v["sim.events"])
	v["core.new_cluster_s"] = tr.seconds("core.NewClusterE") * per
	v["workloads.start_s"] = (tr.seconds("workloads.StartStream") + tr.seconds("workloads.StartRR")) * per
	v["scenario.load_s"] = tr.seconds("scenario.Load") * per
	v["scenario.run_s"] = tr.seconds("scenario.Run") * per
	v["metrics.snapshot_s"] = tr.seconds("Registry.Snapshot") * per
	for _, id := range ioctopus.ExperimentIDs() {
		v["experiments."+id+"_s"] = tr.seconds("experiments.Run:"+id) * per
	}
	v["trace.overhead_s"] = (mean - base.wall).Seconds()
	v["trace.spans"] = float64(len(tr.spans)) * per
	v["trace.host_scale"] = hostScale(calib)
	path, err := tr.write(outDir, w.name, seed)
	if err != nil {
		return nil, err
	}
	r.notef("untraced wall %.4f s, traced wall %.4f s (mean of %d); %d spans written to %s",
		base.wall.Seconds(), mean.Seconds(), n, len(tr.spans), path)
	return r, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resetPeakRSS restarts the kernel's peak resident set count, where the
// kernel allows it; otherwise the peak stays the process's.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(workload string, seed int64) error {
	fmt.Printf("workload %s, seed %d\n", workload, seed)
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	fmt.Printf("  ops %d, ops_failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	metrics := map[string]jsonMetric{}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("  %-34s %.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: bulk-stream, poll-rr, paper-figures or fault-recovery")
	seed := flag.Int64("seed", 1, "input seed (paper-figures pins its own)")
	seconds := flag.Int("seconds", 20, "host seconds a run spends repeating the workload")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the timed run")
	outDir := flag.String("out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok || flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>; workloads: bulk-stream, poll-rr, paper-figures, fault-recovery\n")
		os.Exit(2)
	}
	var r *report
	var err error
	if *trace == 1 {
		r, err = traced(w, *seed, time.Duration(*seconds)*time.Second, w.size, *outDir)
	} else {
		r, err = timed(w, *seed, time.Duration(*seconds)*time.Second, w.size)
	}
	if err == nil {
		err = r.print(w.name, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
