// Benchmark harness: one testing.B benchmark per evaluation artifact of
// the paper. Each benchmark regenerates its figure at quick durations
// and reports the figure's headline quantity as custom metrics, so
//
//	go test -bench=. -benchmem
//
// re-derives the entire evaluation. The committed full-duration numbers
// live in EXPERIMENTS.md; use `go run ./cmd/ioctobench -fig all` to
// regenerate them.
package ioctopus_test

import (
	"runtime"
	"testing"
	"time"

	"ioctopus"
	"ioctopus/internal/core"
	"ioctopus/internal/experiments"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/nvme"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// runFigure executes one experiment per benchmark iteration, failing
// the benchmark if any paper-shape check fails.
func runFigure(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.Checks {
			if !c.Pass {
				b.Fatalf("shape check %q failed: %s", c.Name, c.Detail)
			}
		}
		last = res
	}
	return last
}

// BenchmarkFig02Trend regenerates the §2.6 NIC-vs-CPU trend dataset.
func BenchmarkFig02Trend(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig06RxThroughput regenerates Figure 6 (single-core TCP Rx
// sweep) and reports the local-vs-remote edge at 64 KB.
func BenchmarkFig06RxThroughput(b *testing.B) {
	runFigure(b, "fig6")
	local, remote := measureRxPair(b, 65536)
	b.ReportMetric(local, "local-Gb/s")
	b.ReportMetric(remote, "remote-Gb/s")
	b.ReportMetric(local/remote, "speedup")
}

// BenchmarkFig06MultiCore regenerates the §5.1.1 multi-core paragraph.
func BenchmarkFig06MultiCore(b *testing.B) { runFigure(b, "fig6-multicore") }

// BenchmarkFig07TxThroughput regenerates Figure 7 (single-core TCP Tx
// with TSO).
func BenchmarkFig07TxThroughput(b *testing.B) { runFigure(b, "fig7") }

// BenchmarkFig08Pktgen regenerates Figure 8 (pktgen packet rates).
func BenchmarkFig08Pktgen(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig09Latency regenerates Figure 9 (TCP_RR ll/rr/llnd).
func BenchmarkFig09Latency(b *testing.B) { runFigure(b, "fig9") }

// BenchmarkFig10Memcached regenerates Figure 10 (memcached SET sweep).
func BenchmarkFig10Memcached(b *testing.B) { runFigure(b, "fig10") }

// BenchmarkFig11QPICongestionRx regenerates Figure 11 (TCP Rx vs STREAM
// pairs).
func BenchmarkFig11QPICongestionRx(b *testing.B) { runFigure(b, "fig11") }

// BenchmarkFig12QPICongestionLat regenerates Figure 12 (UDP latency vs
// STREAM pairs).
func BenchmarkFig12QPICongestionLat(b *testing.B) { runFigure(b, "fig12") }

// BenchmarkFig13CoLocation regenerates Figure 13 (PageRank co-location).
func BenchmarkFig13CoLocation(b *testing.B) { runFigure(b, "fig13") }

// BenchmarkFig14Migration regenerates Figure 14 (per-PF throughput
// across a thread migration).
func BenchmarkFig14Migration(b *testing.B) { runFigure(b, "fig14") }

// BenchmarkFig15NVMe regenerates Figure 15 (fio vs STREAM on the UPI).
func BenchmarkFig15NVMe(b *testing.B) { runFigure(b, "fig15") }

// BenchmarkFig15OctoSSD regenerates the §5.4 OctoSSD extension.
func BenchmarkFig15OctoSSD(b *testing.B) { runFigure(b, "fig15-octossd") }

// BenchmarkAblationWiring regenerates the §3.2 wiring comparison.
func BenchmarkAblationWiring(b *testing.B) { runFigure(b, "ablation-wiring") }

// BenchmarkAblationIOctoSG regenerates the IOctoSG fragment-steering
// ablation (§3.3).
func BenchmarkAblationIOctoSG(b *testing.B) { runFigure(b, "ablation-sg") }

// BenchmarkAblationCoalescing regenerates the interrupt-moderation
// tradeoff.
func BenchmarkAblationCoalescing(b *testing.B) { runFigure(b, "ablation-window") }

// benchAllQuick regenerates every artifact at quick durations — the
// `ioctobench -fig all -quick` workload — with the harness bounded to
// the given parallelism and the experiments run one after another, as
// the CLI runs them.
func benchAllQuick(b *testing.B, par int) {
	b.Helper()
	old := ioctopus.Parallelism()
	ioctopus.SetParallelism(par)
	defer ioctopus.SetParallelism(old)
	ids := ioctopus.ExperimentIDs()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if _, err := ioctopus.RunExperiment(id, ioctopus.QuickDurations()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAllFiguresQuickSerial is the `-fig all -quick` wall clock at
// -parallel 1.
func BenchmarkAllFiguresQuickSerial(b *testing.B) { benchAllQuick(b, 1) }

// BenchmarkAllFiguresQuickParallel is the same workload at the default
// parallelism (GOMAXPROCS); on a multi-core host the ratio to the
// serial benchmark is the harness fan-out speedup.
func BenchmarkAllFiguresQuickParallel(b *testing.B) { benchAllQuick(b, runtime.GOMAXPROCS(0)) }

// steadyStateCluster builds a single-core Rx streaming cluster with
// the given configuration and server core and runs it past warm-up:
// pools populated, rings and buffers allocated, TCP window in
// regulation. Packet-path measurements start from here.
func steadyStateCluster(cfg ioctopus.Config, serverCore topology.CoreID) *core.Cluster {
	cl := ioctopus.NewCluster(cfg)
	workloads.StartStream(cl, workloads.StreamConfig{
		MsgSize: 65536, Direction: workloads.Rx,
		ServerCores: []topology.CoreID{serverCore}, ServerIP: core.IPServerPF0,
	})
	cl.Run(20 * time.Millisecond)
	return cl
}

// remoteRxCore is the first core of socket 1. Under the standard
// firmware the stream targets PF0 on socket 0, so this core receives
// through a remote PF: the paper's `remote` configuration.
const remoteRxCore topology.CoreID = 14

// TestPacketPathAllocFree guards the pooled datapath: once warm, a
// steady-state simulation window allocates nothing — packets, frames,
// DMA ops and ACK flights all come from free lists. The window is one
// simulated millisecond (~1300 events of full Rx segment round trips);
// the bound leaves room only for incidental runtime noise, not for any
// per-packet cost. Three runs are guarded: IOctopus Rx on a NIC-local
// core, whose completion reads all hit; the same with the TCP
// retransmission timer armed, which tracks every segment in flight;
// and standard-firmware Rx on a socket-1 core, whose completion reads
// miss one by one (§5.1.1).
func TestPacketPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ioctopus.Config
		core topology.CoreID
	}{
		{"ioctopus-local", ioctopus.Config{Mode: ioctopus.ModeIOctopus}, 0},
		{"ioctopus-local-retx", ioctopus.Config{
			Mode:        ioctopus.ModeIOctopus,
			StackParams: ioctopus.StackParams{RetxTimeout: 2 * time.Millisecond},
		}, 0},
		{"standard-remote", ioctopus.Config{Mode: ioctopus.ModeStandard}, remoteRxCore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := steadyStateCluster(tc.cfg, tc.core)
			defer cl.Drain()
			allocs := testing.AllocsPerRun(5, func() {
				cl.Run(time.Millisecond)
			})
			if allocs > 2 {
				t.Fatalf("steady-state packet path allocates %.0f allocs/ms, want 0", allocs)
			}
		})
	}
}

// TestMemcachedAllocFree guards the memcached workload's steady state
// the same way: memslap clients against one IOctopus server, GET-only,
// half SETs and SET-only, allocate nothing per simulated millisecond
// once warm. The 120 ms warm-up outlasts the free lists' growth, which
// tracks the pipelines filling with 512 KB values.
func TestMemcachedAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setRatio float64
	}{{"get", 0}, {"set-50", 0.5}, {"set", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := ioctopus.NewCluster(ioctopus.Config{Mode: ioctopus.ModeIOctopus, Seed: 11})
			defer cl.Drain()
			cfg := workloads.DefaultMemcachedConfig(0, cl)
			cfg.SetRatio = tc.setRatio
			w := workloads.StartMemcached(cl, cfg)
			cl.Run(120 * time.Millisecond)
			w.MeasureStart()
			allocs := testing.AllocsPerRun(5, func() {
				cl.Run(time.Millisecond)
			})
			if allocs > 2 {
				t.Fatalf("steady-state memcached allocates %.0f allocs/ms, want 0", allocs)
			}
			if w.Transactions() == 0 {
				t.Fatal("no transaction completed in the measured windows")
			}
		})
	}
}

// benchPacketPath measures a steady-state packet path alone: one
// simulated millisecond of single-core Rx streaming per iteration, with
// cluster construction excluded. Contrast with
// BenchmarkSimulatorEventRate, which includes construction per op.
func benchPacketPath(b *testing.B, mode ioctopus.NICMode, serverCore topology.CoreID) {
	cl := steadyStateCluster(ioctopus.Config{Mode: mode}, serverCore)
	defer cl.Drain()
	runSteady(b, cl)
}

// runSteady runs one simulated millisecond per iteration and reports
// the events dispatched and the thread wakes (process resumes) per
// iteration. Both are pure functions of the simulation at a fixed
// -benchtime Nx, and scripts/check.sh gates them: a socket call costs
// its thread one wake, so a kernel-side step that goes back to waking
// the thread shows as more wakes/op with the same events/op.
func runSteady(b *testing.B, cl *core.Cluster) {
	b.ReportAllocs()
	b.ResetTimer()
	events, wakes := cl.Eng.Executed, cl.Eng.Wakes
	for i := 0; i < b.N; i++ {
		cl.Run(time.Millisecond)
	}
	b.ReportMetric(float64(cl.Eng.Executed-events)/float64(b.N), "events/op")
	b.ReportMetric(float64(cl.Eng.Wakes-wakes)/float64(b.N), "wakes/op")
}

// BenchmarkPacketPath is IOctopus Rx on a NIC-local core: every
// completion-entry read hits, so a poll's run of entries is priced by
// its first read.
func BenchmarkPacketPath(b *testing.B) { benchPacketPath(b, ioctopus.ModeIOctopus, 0) }

// BenchmarkRemoteRxPath is standard-firmware Rx on a socket-1 core, the
// §5.1.1 NUDMA case: remote DMA writes invalidate the completion ring,
// so its entry reads miss and are priced one at a time.
func BenchmarkRemoteRxPath(b *testing.B) {
	benchPacketPath(b, ioctopus.ModeStandard, remoteRxCore)
}

// TestStorageAllocFree guards the storage path the way
// TestPacketPathAllocFree guards the packet path: Figure 15's contended
// rig (four drives on socket 1, fio on cores 0-7 with one request per
// queue slot, STREAM antagonists on socket 1 against socket 0's memory),
// once warm, allocates nothing per simulated millisecond — neither the
// NVMe request stages nor the fluid water-filling.
func TestStorageAllocFree(t *testing.T) {
	rig := core.NewStorageRig(nvme.SinglePath, false)
	defer rig.Drain()
	fio := workloads.StartFio(rig, []topology.CoreID{0, 1, 2, 3, 4, 5, 6, 7})
	ant := workloads.StartAntagonistOn(rig.Host, 10, 1, 0, workloads.AntagonistConfig{DemandPerInstance: 10e9})
	rig.Run(20 * time.Millisecond)
	fio.MeasureStart()
	allocs := testing.AllocsPerRun(5, func() {
		rig.Run(time.Millisecond)
	})
	if allocs > 2 {
		t.Fatalf("steady-state storage path allocates %.0f allocs/ms, want 0", allocs)
	}
	if fio.Bytes() == 0 || ant.Bytes() == 0 {
		t.Fatalf("rig idle: fio moved %d bytes, STREAM %v", fio.Bytes(), ant.Bytes())
	}
}

// TestPoolingPreservesResults is the A/B regression gate for the packet
// pools: the same experiments, pooling on vs off, must render byte-
// identical results — pooling recycles model objects but must never
// change what the model computes.
func TestPoolingPreservesResults(t *testing.T) {
	render := func(id string) string {
		res, err := experiments.Run(id, experiments.Quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return res.Render()
	}
	for _, id := range []string{"fig8", "fig9", "ablation-sg"} {
		pooled := render(id)
		nic.SetPooling(false)
		unpooled := render(id)
		nic.SetPooling(true)
		if pooled != unpooled {
			t.Errorf("%s: pooled and unpooled runs differ\npooled:\n%s\nunpooled:\n%s", id, pooled, unpooled)
		}
	}
}

// measureRxPair runs one local and one remote single-core Rx stream and
// returns their throughputs (the headline numbers of Figure 6).
func measureRxPair(b *testing.B, msg int64) (local, remote float64) {
	b.Helper()
	run := func(serverCore topology.CoreID) float64 {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		defer cl.Drain()
		var received int64
		cl.Server.Stack.Listen(7, func(s *netstack.Socket) {
			cl.Server.Kernel.Spawn("srv", serverCore, func(th *kernel.Thread) {
				s.SetOwner(th)
				for {
					n, _, ok := s.Recv(th)
					if !ok {
						return
					}
					received += n
				}
			})
		})
		cl.Client.Kernel.Spawn("cli", 0, func(th *kernel.Thread) {
			sock, err := cl.Client.Stack.Dial(th, core.IPServerPF0, 7, 6)
			if err != nil {
				panic(err)
			}
			for {
				sock.Send(th, msg)
			}
		})
		cl.Run(5 * time.Millisecond)
		base := received
		window := 15 * time.Millisecond
		cl.Run(window)
		return float64(received-base) * 8 / window.Seconds() / 1e9
	}
	return run(0), run(14)
}

// BenchmarkSimulatorEventRate measures the raw simulation speed of the
// full datapath: simulated-seconds of single-core Rx per wall second.
// Allocations are reported to guard the engine's free-list design; the
// residual allocs/op are model-layer closures, not the dispatch loop
// (see sim.TestScheduleDispatchAllocFree for the zero-alloc guarantee).
// events/sec is the headline dispatch rate BENCH_sim.json records per
// PR (it includes cluster construction; BenchmarkPacketPath isolates
// the steady state).
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cl := ioctopus.NewCluster(ioctopus.Config{Mode: ioctopus.ModeIOctopus})
		w := workloads.StartStream(cl, workloads.StreamConfig{
			MsgSize: 65536, Direction: workloads.Rx,
			ServerCores: []topology.CoreID{0}, ServerIP: core.IPServerPF0,
		})
		cl.Run(20 * time.Millisecond)
		if w.Bytes() == 0 {
			w.MeasureStart()
		}
		events += cl.Eng.Executed
		cl.Drain()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
