package workloads

import (
	"testing"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/driver"
	"ioctopus/internal/eth"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
)

func TestStreamRxMeasures(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
	w := StartStream(cl, StreamConfig{
		MsgSize: 64 * 1024, Direction: Rx,
		ServerCores: []topology.CoreID{0},
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(5 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	gbps := metrics.Gbps(float64(w.Bytes()), 10*time.Millisecond)
	cl.Drain()
	if gbps < 10 {
		t.Fatalf("stream Rx = %.1f Gb/s, too slow", gbps)
	}
}

func TestStreamTxDirection(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
	w := StartStream(cl, StreamConfig{
		MsgSize: 64 * 1024, Direction: Tx,
		ServerCores: []topology.CoreID{0},
		ClientCores: []topology.CoreID{0},
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(5 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	gbps := metrics.Gbps(float64(w.Bytes()), 10*time.Millisecond)
	cl.Drain()
	if gbps < 25 {
		t.Fatalf("stream Tx = %.1f Gb/s, want ~45", gbps)
	}
}

func TestMultiInstanceStreamScales(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
	w := StartStream(cl, StreamConfig{
		MsgSize: 64 * 1024, Direction: Rx,
		ServerCores: []topology.CoreID{0, 1, 2, 3, 14, 15, 16, 17},
		ClientCores: []topology.CoreID{0, 1, 2, 3, 4, 5, 6, 7},
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(5 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	gbps := metrics.Gbps(float64(w.Bytes()), 10*time.Millisecond)
	cl.Drain()
	// Eight single-core flows should push well past one flow's ~23.
	if gbps < 60 {
		t.Fatalf("8-instance Rx = %.1f Gb/s, want near line rate", gbps)
	}
}

func TestRRLatencyLocalVsRemote(t *testing.T) {
	run := func(serverCore topology.CoreID) time.Duration {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard, DisableCoalescing: true})
		w := StartRR(cl, RRConfig{
			MsgSize: 64, ServerCore: serverCore, ClientCore: 0,
			ServerIP: core.IPServerPF0,
		})
		cl.Run(2 * time.Millisecond)
		w.MeasureStart()
		cl.Run(20 * time.Millisecond)
		cl.Drain()
		if w.Transactions() < 50 {
			t.Fatalf("only %d transactions", w.Transactions())
		}
		return w.Mean()
	}
	ll := run(0)
	rr := run(14)
	ratio := float64(rr) / float64(ll)
	if ratio < 1.03 || ratio > 1.45 {
		t.Fatalf("rr/ll latency = %.3f (ll=%v rr=%v), want ~1.10-1.25", ratio, ll, rr)
	}
}

func TestSockperfUDPLatency(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeStandard, DisableCoalescing: true})
	w := StartRR(cl, RRConfig{
		MsgSize: 64, ServerCore: 0, ClientCore: 0,
		ServerIP: core.IPServerPF0, Proto: eth.ProtoUDP,
	})
	cl.Run(2 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	cl.Drain()
	if w.Transactions() == 0 {
		t.Fatal("no UDP transactions")
	}
	if w.Hist.Percentile(99) < w.Hist.Percentile(50) {
		t.Fatal("percentiles not ordered")
	}
}

func TestPktgenLocalBeatsRemote(t *testing.T) {
	run := func(coreID topology.CoreID) float64 {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		dev := cl.Dev0.(*driver.Standard) // PF0 on node 0
		w := StartPktgen(cl, dev, coreID, 64)
		cl.Run(2 * time.Millisecond)
		w.MeasureStart()
		cl.Run(10 * time.Millisecond)
		cl.Drain()
		return float64(w.Packets()) / 0.010 / 1e6 // MPPS
	}
	local := run(0)
	remote := run(14)
	if local < 2.5 || local > 6 {
		t.Fatalf("local pktgen = %.2f MPPS, want ~4.1", local)
	}
	ratio := local / remote
	if ratio < 1.15 || ratio > 1.7 {
		t.Fatalf("local/remote = %.2f (%.2f vs %.2f MPPS), want ~1.33", ratio, local, remote)
	}
}

// TestPktgenWakesOncePerBurst: a warm generator parks its thread once
// per 64-packet burst. The burst's CPU cost runs with the driver's
// Xmit as its then step, and only the post wakes the thread; a wake
// for the cost and another for the doorbell would double the count.
// Bursts in flight at the window's edges, at most
// pktgenMaxOutstanding, are the slack.
func TestPktgenWakesOncePerBurst(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
	defer cl.Drain()
	w := StartPktgen(cl, cl.Dev0, 0, 64)
	cl.Run(2 * time.Millisecond)
	w.MeasureStart()
	wakes := cl.Eng.Wakes
	cl.Run(2 * time.Millisecond)
	bursts := w.Packets() / pktgenBatch
	got := cl.Eng.Wakes - wakes
	if bursts < 50 {
		t.Fatalf("only %d bursts sent in 2 ms", bursts)
	}
	if got > bursts+pktgenMaxOutstanding || got+pktgenMaxOutstanding < bursts {
		t.Fatalf("%d wakes for %d bursts, want one per burst", got, bursts)
	}
}

func TestAntagonistDegradesRemoteStream(t *testing.T) {
	run := func(pairs int) float64 {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		w := StartStream(cl, StreamConfig{
			MsgSize: 64 * 1024, Direction: Rx,
			ServerCores: []topology.CoreID{14}, // remote to PF0
			ServerIP:    core.IPServerPF0,
		})
		var ant *Antagonist
		if pairs > 0 {
			ant = StartAntagonist(cl.Server, DefaultAntagonistConfig(pairs))
		}
		cl.Run(5 * time.Millisecond)
		w.MeasureStart()
		cl.Run(10 * time.Millisecond)
		cl.Drain()
		if ant != nil && ant.Bytes() == 0 {
			t.Fatal("antagonist moved no data")
		}
		return metrics.Gbps(float64(w.Bytes()), 10*time.Millisecond)
	}
	solo := run(0)
	loaded := run(6)
	if loaded >= solo*0.8 {
		t.Fatalf("6 STREAM pairs should crush remote Rx: %.1f -> %.1f Gb/s", solo, loaded)
	}
}

func TestPageRankRuntimeScalesWithContention(t *testing.T) {
	solo := func() time.Duration {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		pr := StartPageRank(cl.Server, 100e6) // small for test speed
		cl.Run(2 * time.Second)
		cl.Drain()
		if !pr.Done() {
			t.Fatal("pagerank did not finish")
		}
		return pr.Runtime()
	}()
	contended := func() time.Duration {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		pr := StartPageRank(cl.Server, 100e6)
		StartAntagonist(cl.Server, DefaultAntagonistConfig(6))
		cl.Run(5 * time.Second)
		cl.Drain()
		if !pr.Done() {
			t.Fatal("contended pagerank did not finish")
		}
		return pr.Runtime()
	}()
	if contended <= solo {
		t.Fatalf("contention should slow PageRank: %v vs %v", solo, contended)
	}
}

func TestMemcachedServesGetsAndSets(t *testing.T) {
	cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
	cfg := DefaultMemcachedConfig(0, cl)
	cfg.SetRatio = 0.5
	cfg.ClientCores = cfg.ClientCores[:4] // lighter for the test
	cfg.ServerCores = cfg.ServerCores[:4]
	w := StartMemcached(cl, cfg)
	cl.Run(10 * time.Millisecond)
	w.MeasureStart()
	cl.Run(30 * time.Millisecond)
	txns := w.Transactions()
	cl.Drain()
	if txns == 0 {
		t.Fatal("no memcached transactions completed")
	}
	// Slab must show memory activity (values exceed the LLC).
	if cl.Server.Mem.TotalDRAMBytes() == 0 {
		t.Fatal("memcached working set should touch DRAM")
	}
}

func TestMemcachedRemoteSlower(t *testing.T) {
	run := func(node topology.NodeID) uint64 {
		cl := core.NewCluster(core.Config{Mode: core.ModeStandard})
		cfg := DefaultMemcachedConfig(node, cl)
		cfg.SetRatio = 1.0 // SETs maximize the Rx-side NUDMA penalty
		cfg.ClientCores = cfg.ClientCores[:6]
		cfg.ServerCores = cfg.ServerCores[:6]
		w := StartMemcached(cl, cfg)
		cl.Run(10 * time.Millisecond)
		w.MeasureStart()
		cl.Run(40 * time.Millisecond)
		cl.Drain()
		return w.Transactions()
	}
	local := run(0)
	remote := run(1)
	if local == 0 || remote == 0 {
		t.Fatalf("no transactions: local=%d remote=%d", local, remote)
	}
	if float64(local)/float64(remote) < 1.02 {
		t.Fatalf("local/remote = %.3f (%d vs %d), want > 1", float64(local)/float64(remote), local, remote)
	}
}

// TestTxAppCorePlacementDerivesFromTopology pins the fix for the
// hardcoded `% 14` wrap: the Tx sink's app core must be the next core
// on the sink's own node for any topology, not an id modulo the
// Broadwell core count.
func TestTxAppCorePlacementDerivesFromTopology(t *testing.T) {
	topo := topology.DualBroadwell()
	cases := []struct {
		sink, want topology.CoreID
	}{
		{0, 1},   // node 0 interior
		{13, 0},  // node 0 boundary wraps within node 0, not onto 14
		{15, 16}, // node 1 interior (old code said (15+1)%14 = 2: node 0!)
		{27, 14}, // node 1 boundary wraps back to node 1's first core
	}
	for _, c := range cases {
		if got := nextCoreOn(topo, c.sink); got != c.want {
			t.Errorf("nextCoreOn(dual-broadwell, %d) = %d, want %d", c.sink, got, c.want)
		}
	}
	small := singleSocket(4)
	if got := nextCoreOn(small, 3); got != 0 {
		t.Errorf("nextCoreOn(single-socket-4, 3) = %d, want 0", got)
	}
}

// singleSocket returns a one-socket machine with the given core count.
func singleSocket(cores int) *topology.Server {
	ref := topology.DualBroadwell().Sockets[0]
	return topology.Build("single-socket", 1, cores, 2.0, ref.LLC, ref.DRAM, topology.InterconnectSpec{})
}

// TestStreamTxOnSmallTopology runs the Tx path end to end on a client
// with fewer cores than the hardcoded wrap assumed; before the fix the
// derived app core did not exist and Spawn panicked.
func TestStreamTxOnSmallTopology(t *testing.T) {
	cl := core.NewCluster(core.Config{
		Mode:       core.ModeStandard,
		ClientTopo: singleSocket(4),
	})
	w := StartStream(cl, StreamConfig{
		MsgSize: 64 * 1024, Direction: Tx,
		ServerCores: []topology.CoreID{0},
		ClientCores: []topology.CoreID{3}, // last client core: wrap required
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(5 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	cl.Drain()
	if w.Bytes() == 0 {
		t.Fatal("Tx stream on a 4-core client made no progress")
	}
	if errs := w.Errors(); len(errs) != 0 {
		t.Fatalf("unexpected workload errors: %v", errs)
	}
}

// TestStreamDefaultClientCoresFollowTopology: the default client-core
// pool must be sized by the client's actual node-0 core count.
func TestStreamDefaultClientCoresFollowTopology(t *testing.T) {
	cl := core.NewCluster(core.Config{
		Mode:       core.ModeIOctopus,
		ClientTopo: singleSocket(2),
	})
	w := StartStream(cl, StreamConfig{
		MsgSize: 64 * 1024, Direction: Rx,
		ServerCores: []topology.CoreID{0, 1, 2},
		ServerIP:    core.IPServerPF0,
	})
	cl.Run(5 * time.Millisecond)
	w.MeasureStart()
	cl.Run(10 * time.Millisecond)
	cl.Drain()
	if w.Bytes() == 0 {
		t.Fatal("stream with defaulted client cores on a 2-core client made no progress")
	}
}

// TestDialFailureIsRecordedNotFatal: a workload whose connect phase
// cannot reach the server must record the failure for the run's checks
// instead of panicking the process.
func TestDialFailureIsRecordedNotFatal(t *testing.T) {
	const unroutable = 0x0B0B0B0B // 11.11.11.11: no device owns it

	t.Run("stream", func(t *testing.T) {
		cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
		w := StartStream(cl, StreamConfig{
			MsgSize: 64 * 1024, Direction: Rx,
			ServerCores: []topology.CoreID{0},
			ServerIP:    unroutable,
		})
		cl.Run(5 * time.Millisecond)
		cl.Drain()
		if errs := w.Errors(); len(errs) == 0 {
			t.Fatal("dial failure left Errors() empty")
		}
		if w.Bytes() != 0 {
			t.Fatalf("unconnected stream claims %d bytes", w.Bytes())
		}
	})

	t.Run("rr", func(t *testing.T) {
		cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
		w := StartRR(cl, RRConfig{
			MsgSize: 64, ServerCore: 0, ClientCore: 0, ServerIP: unroutable,
		})
		cl.Run(5 * time.Millisecond)
		cl.Drain()
		if errs := w.Errors(); len(errs) == 0 {
			t.Fatal("dial failure left Errors() empty")
		}
	})

	t.Run("memcached", func(t *testing.T) {
		cl := core.NewCluster(core.Config{Mode: core.ModeIOctopus})
		cfg := DefaultMemcachedConfig(0, cl)
		cfg.ServerIP = unroutable
		cfg.ClientCores = cfg.ClientCores[:2]
		w := StartMemcached(cl, cfg)
		cl.Run(5 * time.Millisecond)
		cl.Drain()
		if errs := w.Errors(); len(errs) == 0 {
			t.Fatal("dial failure left Errors() empty")
		}
	})
}
