package scenario

import (
	"fmt"
	"time"

	"ioctopus/internal/sim"
)

// standardDriverPFs is how many server PFs have queue pairs in
// standard mode: the cluster binds one standard driver to PF 0 (eth0)
// and one to PF 1 (eth1); further PFs carry no traffic. Generate draws
// queue stalls without building a cluster, so it needs the layout here.
const standardDriverPFs = 2

// Generate draws a random — but always valid — scenario from the given
// seed: a topology pair, a NIC mode and wiring, a workload mix anchored
// by a forward stream, and a fault schedule, plus the invariant checks
// the drawn combination must uphold (conservation, no abandoned
// segments, failover when the octo driver takes a flap, sane windowed
// throughput). It is a pure function of the seed: the same seed yields
// a deeply equal spec, and running it twice renders byte-identical
// output — which is exactly what `ioctobench -fuzz` and the check.sh
// gate verify. The DICE-style point is adversarial coverage: schedules
// no curated figN runner would ever wire by hand.
func Generate(seed int64) *Spec {
	rng := sim.NewRNG(seed)
	pickInt := func(xs ...int) int { return xs[rng.Intn(len(xs))] }

	serverSockets := pickInt(1, 2, 2, 2, 4)
	serverCores := pickInt(2, 4, 6)
	clientSockets := pickInt(1, 2)
	clientCores := pickInt(2, 4)

	mode := "standard"
	if rng.Float64() < 0.7 {
		mode = "ioctopus"
	}
	wiring := []string{"bifurcated", "extender", "riser", "switch"}[rng.Intn(4)]
	// Datapath axis: half the seeds stay on the interrupt path, the rest
	// split between busypoll and hybrid. Generated servers always have
	// >= 2 cores per socket, so busypoll's spare-core requirement holds
	// by construction.
	datapath := ""
	switch rng.Intn(4) {
	case 0:
		datapath = "busypoll"
	case 1:
		datapath = "hybrid"
	}

	sim2 := &SimSpec{
		Topology: TopoSpec{
			Server: MachineSpec{Sockets: serverSockets, CoresPerSocket: serverCores},
			Client: MachineSpec{Sockets: clientSockets, CoresPerSocket: clientCores},
		},
		Mode:     mode,
		Wiring:   wiring,
		Datapath: datapath,
		// Retransmission is always on: most of the invariants worth
		// fuzzing (conservation, no-abandoned) only exist above it.
		Retx: &RetxSpec{Timeout: 2 * time.Millisecond, MaxTries: 12},
	}

	// Workload mix: always a forward stream first (so the wire's
	// client->server direction always carries data and workload:0 is a
	// valid sample source), then up to two more drawn from the menu.
	msgSizes := []int64{4096, 16384, 65536}
	sim2.Workloads = append(sim2.Workloads, WorkloadSpec{
		Kind: "stream", Port: 7000, MsgSize: msgSizes[rng.Intn(len(msgSizes))],
		SinkName: "fwd-sink", SrcName: "fwd-src",
		SinkNode: rng.Intn(serverSockets), SinkCoreIdx: rng.Intn(serverCores),
		SrcNode: rng.Intn(clientSockets), SrcCoreIdx: rng.Intn(clientCores),
	})
	extra := rng.Intn(3)
	for i := 0; i < extra; i++ {
		port := uint16(7000 + 100*(i+1))
		switch rng.Intn(4) {
		case 0: // reverse stream (server transmits)
			sim2.Workloads = append(sim2.Workloads, WorkloadSpec{
				Kind: "stream", FromServer: true, Port: port,
				MsgSize:  msgSizes[rng.Intn(len(msgSizes))],
				SinkName: fmt.Sprintf("rev-sink-%d", i), SrcName: fmt.Sprintf("rev-src-%d", i),
				SinkNode: rng.Intn(clientSockets), SinkCoreIdx: rng.Intn(clientCores),
				SrcNode: rng.Intn(serverSockets), SrcCoreIdx: rng.Intn(serverCores),
			})
		case 1, 2: // netperf instances
			dir := "rx"
			if rng.Float64() < 0.5 {
				dir = "tx"
			}
			sim2.Workloads = append(sim2.Workloads, WorkloadSpec{
				Kind: "netperf", Port: port, Direction: dir,
				MsgSize:    msgSizes[rng.Intn(len(msgSizes))],
				Instances:  1 + rng.Intn(2),
				ServerNode: rng.Intn(serverSockets),
			})
		case 3: // memcached, sized down to the fuzz timeline
			sim2.Workloads = append(sim2.Workloads, WorkloadSpec{
				Kind: "memcached", Port: port,
				ServerNode: rng.Intn(serverSockets),
				Clients:    1 + rng.Intn(2),
				KeySize:    64,
				ValueSize:  []int64{1024, 4096, 8192}[rng.Intn(3)],
				SetRatio:   0.1 * float64(rng.Intn(3)),
				OpCost:     10 * time.Microsecond,
				Pipeline:   1 + rng.Intn(3),
			})
		}
	}

	// Fault schedule: windows land in [5%,70%] of the timeline so the
	// post-fault window ([75%,100%)) always measures a healed system.
	// Same-state windows are de-overlapped deterministically (shifted
	// past the previous window's end, dropped if that pushes them past
	// 70%) so no two windows race for the same state and every
	// generated plan passes faults.Arm by construction.
	kinds := []string{"loss", "burst", "corrupt", "stall", "fw-reset", "queue-stall"}
	if serverSockets >= 2 {
		kinds = append(kinds, "link-flap", "degrade")
	}
	if datapath == "busypoll" {
		// Only the busypoll datapath runs dedicated poll loops to wedge.
		kinds = append(kinds, "poller-stall")
	}
	drawDir := func() string {
		// Prefer client->server: the forward stream guarantees that
		// direction carries frames, so the fault provably bites.
		if rng.Float64() < 0.7 {
			return "client-to-server"
		}
		return "server-to-client"
	}
	lastEnd := map[string]int{}
	hasFlap, hasC2S := false, false
	hasFwReset, hasQueueStall, hasPollerStall := false, false, false
	nFaults := rng.Intn(5)
	for i := 0; i < nFaults; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		at := 5 + rng.Intn(56)
		dur := 3 + rng.Intn(13)
		f := FaultSpec{Kind: kind, AtPct: at, DurPct: dur}
		var key string
		switch kind {
		case "loss":
			f.Dir = drawDir()
			f.Prob = 0.05 + 0.25*rng.Float64()
			key = "loss/" + f.Dir
		case "burst":
			f.Dir = drawDir()
			f.DurPct = 2 + rng.Intn(4)
			key = "burst/" + f.Dir
		case "corrupt":
			f.Dir = drawDir()
			f.Prob = 0.01 + 0.09*rng.Float64()
			key = "corrupt/" + f.Dir
		case "stall":
			f.Core = rng.Intn(serverSockets * serverCores)
			f.DurPct = 0
			f.Dur = time.Duration(500+rng.Intn(501)) * time.Microsecond
		case "link-flap":
			f.PF = rng.Intn(serverSockets)
			key = fmt.Sprintf("flap/%d", f.PF)
		case "degrade":
			f.From = rng.Intn(serverSockets)
			f.To = rng.Intn(serverSockets - 1)
			if f.To >= f.From {
				f.To++
			}
			f.BWFactor = 0.3 + 0.4*rng.Float64()
			f.LatFactor = 1.5 + rng.Float64()
			key = fmt.Sprintf("degrade/%d-%d", f.From, f.To)
		case "fw-reset":
			// Instantaneous table wipe; the drivers' journal replay is the
			// recovery under test.
			f.DurPct = 0
		case "queue-stall":
			// Draw only PFs that have queue pairs: every PF under the octo
			// driver, PFs 0 and 1 under the standard drivers.
			// rng.Intn(serverCores) is a valid per-PF queue index in both
			// modes: the octo driver gives each PF a pair per local core
			// (serverCores of them) and the standard driver gives its PF a
			// pair per machine core (serverSockets*serverCores >= that).
			pfs := serverSockets
			if mode == "standard" {
				pfs = min(pfs, standardDriverPFs)
			}
			f.PF = rng.Intn(pfs)
			f.Queue = rng.Intn(serverCores)
			key = fmt.Sprintf("qstall/%d-%d", f.PF, f.Queue)
		case "poller-stall":
			f.Node = rng.Intn(serverSockets)
			key = fmt.Sprintf("pstall/%d", f.Node)
		}
		if key != "" {
			if end, clash := lastEnd[key]; clash && f.AtPct < end {
				f.AtPct = end
			}
			if f.AtPct+f.DurPct > 70 {
				continue
			}
			lastEnd[key] = f.AtPct + f.DurPct
		}
		sim2.Faults = append(sim2.Faults, f)
		switch kind {
		case "link-flap":
			hasFlap = true
		case "fw-reset":
			hasFwReset = true
		case "queue-stall":
			hasQueueStall = true
		case "poller-stall":
			hasPollerStall = true
		}
		if (kind == "loss" || kind == "burst" || kind == "corrupt") && f.Dir == "client-to-server" {
			hasC2S = true
		}
	}
	// A device fault arms the self-healing watchdog: its staged recovery
	// is the invariant under test (and the poller-stall fallback check is
	// meaningless without a watchdog to notice the wedge).
	if hasFwReset || hasQueueStall || hasPollerStall {
		sim2.Watchdog = &WatchdogSpec{Interval: 500 * time.Microsecond}
	}

	sim2.Samples = append(sim2.Samples, SampleSpec{Name: "delivered Gb/s", Source: "workload:0"})
	for i := 0; i < serverSockets; i++ {
		sim2.Samples = append(sim2.Samples,
			SampleSpec{Name: fmt.Sprintf("pf%d Gb/s", i), Source: fmt.Sprintf("pf:%d", i)})
	}
	sim2.Windows = []WindowSpec{
		{Name: "pre", FromPct: 10, ToPct: 30},
		{Name: "faulted", FromPct: 35, ToPct: 60},
		{Name: "post", FromPct: 75, ToPct: 100},
	}
	sim2.WindowTable = "windowed server NIC throughput"
	sim2.Counters = []CounterSpec{
		{Label: "faults: link transitions", Source: "faults/link_transitions"},
		{Label: "faults: frames dropped on wire", Source: "faults/*_drops"},
		{Label: "nic: frames dropped at dead links", Source: "server/nic/pf*/*_link_drops"},
		{Label: "stack: segments retransmitted", Source: "*/stack/retx/retransmits"},
		{Label: "stack: segments abandoned", Source: "*/stack/retx/abandoned"},
	}
	if mode == "ioctopus" {
		sim2.Counters = append(sim2.Counters,
			CounterSpec{Label: "driver: failovers", Source: "server/driver/*/failover/failovers"},
			CounterSpec{Label: "driver: failbacks", Source: "server/driver/*/failover/failbacks"},
			CounterSpec{Label: "driver: descriptors reposted", Source: "server/driver/*/failover/reposted"})
	}
	sim2.CounterTable = "invariant counters"

	sim2.Checks = append(sim2.Checks, CheckSpec{Kind: "no-errors", Name: "no workload errors"})
	for i, w := range sim2.Workloads {
		sim2.Checks = append(sim2.Checks, CheckSpec{
			Kind: "progress", Name: fmt.Sprintf("workload %d (%s) makes progress", i, w.Kind), Workload: i,
		})
		if w.Kind == "stream" {
			sim2.Checks = append(sim2.Checks, CheckSpec{
				Kind: "stream-conserved",
				Name: fmt.Sprintf("stream %d conserved (gap <= in-flight bound)", i), Workload: i,
			})
		}
	}
	sim2.Checks = append(sim2.Checks, CheckSpec{Kind: "no-abandoned", Name: "no segment abandoned"})
	if hasC2S {
		sim2.Checks = append(sim2.Checks,
			CheckSpec{Kind: "wire-drops-positive", Name: "faults actually dropped traffic"},
			CheckSpec{Kind: "retx-recovered", Name: "retransmission recovered lost segments", Min: 1})
	}
	if mode == "ioctopus" && hasFlap {
		sim2.Checks = append(sim2.Checks,
			CheckSpec{Kind: "failover-and-back", Name: "driver failed over and back"})
	}
	if hasFwReset {
		sim2.Checks = append(sim2.Checks,
			CheckSpec{Kind: "fw-recovered", Name: "fw reset: rules replayed and steering restored"})
	}
	if hasQueueStall {
		sim2.Checks = append(sim2.Checks,
			CheckSpec{Kind: "queue-recovered", Name: "queue stall: no completion left stranded"})
	}
	if hasPollerStall {
		sim2.Checks = append(sim2.Checks,
			CheckSpec{Kind: "poller-fallback-and-back", Name: "poller stall: fallback to interrupt and back"})
	}
	// Wide bounds: a fault inside the pre window legitimately skews the
	// ratio; the check is a sanity rail against a wedged post-fault
	// datapath, not a performance assertion.
	sim2.Checks = append(sim2.Checks, CheckSpec{
		Kind: "window-ratio", Name: "post/pre throughput ratio sane", Window: 2, Lo: 0.05, Hi: 20,
	})

	return &Spec{
		Name:  fmt.Sprintf("fuzz-%d", seed),
		Title: fmt.Sprintf("generated scenario (seed %d)", seed),
		Seed:  seed,
		Sim:   sim2,
	}
}
