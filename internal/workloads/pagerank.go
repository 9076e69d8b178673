package workloads

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// The GAP-style parallel PageRank victim of §5.2 is a multi-threaded,
// memory-bound graph kernel whose threads scan a graph spread across
// both NUMA nodes (interleaved pages), so its runtime tracks the memory
// and interconnect bandwidth it can get. Its fixed shape:
const (
	// prThreadsPerNode pins this many threads on each socket (paper: 8).
	prThreadsPerNode = 8
	// PageRankDemandPerThread is a thread's unconstrained memory rate
	// in bytes/s.
	PageRankDemandPerThread float64 = 3e9
	// prLocalFraction is the share of a thread's accesses that hit its
	// own node (interleaved graph: ~0.5 on two sockets).
	prLocalFraction float64 = 0.5
	// prLatencySensitivity scales how much memory/interconnect latency
	// inflation slows the kernel (0 = pure bandwidth-bound, 1 = fully
	// latency-bound; graph kernels with some MLP sit in between).
	prLatencySensitivity float64 = 0.35
	// prPollInterval is how often completion is checked.
	prPollInterval = 5 * time.Millisecond
)

// PageRank is a running (or finished) PageRank job.
type PageRank struct {
	host     *core.Host
	work     float64 // bytes of graph data each thread streams
	started  sim.Time
	finished sim.Time
	pending  int
	done     bool
}

// prThread is one PageRank thread's flows and progress.
type prThread struct {
	node     topology.NodeID
	other    topology.NodeID
	local    *sim.FluidFlow
	remote   *sim.FluidFlow
	fabric   *sim.FluidFlow
	progress float64 // bytes of work completed
}

// advance accrues dt of progress. The thread streams at its achieved
// fluid rate, further derated by latency inflation on the resources it
// traverses: the kernel is partially latency-bound, so congestion slows
// it even when fair-share bandwidth remains (the Figure 13 effect).
func (pt *prThread) advance(pr *PageRank, dt float64) {
	derate := func(infl float64) float64 { return 1 / (1 + (infl-1)*prLatencySensitivity) }
	mem := pr.host.Mem
	localRate := pt.local.Rate() * derate(mem.MemCtl(pt.node).Inflation())
	remInfl := mem.MemCtl(pt.other).Inflation()
	if f := pr.host.Fabric.Pipe(pt.other, pt.node).Inflation(); f > remInfl {
		remInfl = f
	}
	remoteRate := pt.remote.Rate()
	if fr := pt.fabric.Rate(); fr < remoteRate {
		remoteRate = fr
	}
	remoteRate *= derate(remInfl)
	pt.progress += (localRate + remoteRate) * dt
}

// StartPageRank launches the job on the host; it converges once each
// thread has streamed workBytesPerThread bytes of graph data.
func StartPageRank(h *core.Host, workBytesPerThread float64) *PageRank {
	pr := &PageRank{host: h, work: workBytesPerThread, started: h.Kernel.Engine().Now()}
	nodes := h.Topo.NumNodes()
	for n := 0; n < nodes; n++ {
		node := topology.NodeID(n)
		other := topology.NodeID((n + 1) % nodes)
		for i := 0; i < prThreadsPerNode; i++ {
			name := fmt.Sprintf("pr%d.%d", n, i)
			pt := &prThread{
				node:   node,
				other:  other,
				local:  h.Mem.MemCtl(node).AddFlow(name+":l", PageRankDemandPerThread*prLocalFraction),
				remote: h.Mem.MemCtl(other).AddFlow(name+":r", PageRankDemandPerThread*(1-prLocalFraction)),
				fabric: h.Fabric.AddFlow(name, other, node, PageRankDemandPerThread*(1-prLocalFraction)),
			}
			pr.pending++
			pr.watch(pt)
		}
	}
	return pr
}

// watch polls one thread for completion.
func (pr *PageRank) watch(pt *prThread) {
	eng := pr.host.Kernel.Engine()
	var poll func()
	poll = func() {
		pt.advance(pr, prPollInterval.Seconds())
		if pt.progress >= pr.work {
			pt.local.Remove()
			pt.remote.Remove()
			pt.fabric.Remove()
			pr.pending--
			if pr.pending == 0 {
				pr.done = true
				pr.finished = eng.Now()
			}
			return
		}
		eng.After(prPollInterval, poll)
	}
	eng.After(prPollInterval, poll)
}

// Done reports whether every thread finished.
func (pr *PageRank) Done() bool { return pr.done }

// Runtime returns the job's wall time (valid once Done).
func (pr *PageRank) Runtime() time.Duration {
	if !pr.done {
		return 0
	}
	return pr.finished.Sub(pr.started)
}
