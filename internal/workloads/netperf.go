// Package workloads implements the benchmark programs of §5's
// evaluation: netperf (TCP_STREAM and TCP_RR), pktgen, sockperf,
// memcached driven by memslap, the STREAM memory-bandwidth antagonist,
// and a GAP-style PageRank victim. Each drives the full simulated
// datapath; the experiments package composes them into the paper's
// figures.
package workloads

import (
	"fmt"
	"sync"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/metrics"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
)

// ErrList collects workload-goroutine failures (a Dial refused because
// the run's fault plan or topology broke the path) so the harness can
// fail the run's checks instead of the goroutine crashing the process.
// The workloads here and the spec runner's raw streams share it. It is
// mutex-guarded: a workload's dialing threads all run on their
// cluster's one goroutine, but cheap safety here beats an invariant
// comment three packages away.
type ErrList struct {
	mu   sync.Mutex
	errs []string
}

// Add records one failure.
func (el *ErrList) Add(format string, args ...any) {
	el.mu.Lock()
	el.errs = append(el.errs, fmt.Sprintf(format, args...))
	el.mu.Unlock()
}

// All returns the recorded failures, oldest first.
func (el *ErrList) All() []string {
	el.mu.Lock()
	defer el.mu.Unlock()
	return append([]string(nil), el.errs...)
}

// nextCoreOn returns the core after c on c's own node, wrapping within
// that node — the testbed's "softirq core and app core are neighbours"
// placement, derived from the topology instead of a hardcoded
// cores-per-host constant.
func nextCoreOn(topo *topology.Server, c topology.CoreID) topology.CoreID {
	peers := topo.CoresOn(topo.NodeOf(c))
	for i, p := range peers {
		if p.ID == c {
			return peers[(i+1)%len(peers)].ID
		}
	}
	return c
}

// Direction of a stream test, from the server's perspective.
type Direction int

// Directions.
const (
	// Rx: the server receives (netperf TCP_STREAM toward the server).
	Rx Direction = iota
	// Tx: the server transmits (TCP_STREAM toward the client).
	Tx
)

// StreamConfig configures a netperf TCP_STREAM instance set.
type StreamConfig struct {
	// MsgSize is the netperf buffer size per send/recv call.
	MsgSize int64
	// Direction is Rx (server receives) or Tx (server transmits).
	Direction Direction
	// ServerCores pins one netserver instance per entry.
	ServerCores []topology.CoreID
	// ClientCores pins the matching netperf instances (client machine).
	ClientCores []topology.CoreID
	// ServerIP selects the server netdevice (PF0/PF1 under standard
	// firmware).
	ServerIP uint32
	// Port is the base control port (each instance uses Port+i).
	Port uint16
}

// Stream is a running TCP_STREAM workload.
type Stream struct {
	received []int64 // per instance, measured at the receiving app
	baseline []int64
	servers  []*kernel.Thread // per instance, the server-side thread
	errs     ErrList
}

// StartStream launches the instances. Call MeasureStart after warmup
// and Bytes at the end of the window.
func StartStream(cl *core.Cluster, cfg StreamConfig) *Stream {
	if cfg.Port == 0 {
		cfg.Port = 12000
	}
	if len(cfg.ClientCores) == 0 {
		// Default placement: the client's NIC-local (node 0) cores,
		// round-robin — sized by the actual topology, not a hardcoded
		// cores-per-host count.
		pool := cl.Client.Topo.CoresOn(0)
		cfg.ClientCores = make([]topology.CoreID, len(cfg.ServerCores))
		for i := range cfg.ClientCores {
			cfg.ClientCores[i] = pool[i%len(pool)].ID
		}
	}
	w := &Stream{
		received: make([]int64, len(cfg.ServerCores)),
		baseline: make([]int64, len(cfg.ServerCores)),
		servers:  make([]*kernel.Thread, len(cfg.ServerCores)),
	}
	for i := range cfg.ServerCores {
		i := i
		port := cfg.Port + uint16(i)
		switch cfg.Direction {
		case Rx:
			// Server receives: netserver sink on the server core.
			cl.Server.Stack.Listen(port, func(s *netstack.Socket) {
				w.servers[i] = cl.Server.Kernel.Spawn("netserver", cfg.ServerCores[i], func(th *kernel.Thread) {
					s.SetOwner(th)
					for {
						n, _, ok := s.Recv(th)
						if !ok {
							return
						}
						w.received[i] += n
					}
				})
			})
			cl.Client.Kernel.Spawn("netperf", cfg.ClientCores[i], func(th *kernel.Thread) {
				sock, err := cl.Client.Stack.Dial(th, cfg.ServerIP, port, eth.ProtoTCP)
				if err != nil {
					w.errs.Add("netperf instance %d: %v", i, err)
					return
				}
				for {
					sock.Send(th, cfg.MsgSize)
				}
			})
		case Tx:
			// Server transmits: sink on the client; per the testbed the
			// client splits softirq and app across the sink's NUMA-local
			// cores.
			sinkCore := cfg.ClientCores[i]
			appCore := nextCoreOn(cl.Client.Topo, sinkCore)
			cl.Client.Stack.Listen(port, func(s *netstack.Socket) {
				s.SteerTo(sinkCore)
				cl.Client.Kernel.Spawn("netserver", appCore, func(th *kernel.Thread) {
					for {
						n, _, ok := s.Recv(th)
						if !ok {
							return
						}
						w.received[i] += n
					}
				})
			})
			w.servers[i] = cl.Server.Kernel.Spawn("netperf", cfg.ServerCores[i], func(th *kernel.Thread) {
				sock, err := cl.Server.Stack.Dial(th, core.IPClient, port, eth.ProtoTCP)
				if err != nil {
					w.errs.Add("netperf instance %d: %v", i, err)
					return
				}
				for {
					sock.Send(th, cfg.MsgSize)
				}
			})
		}
	}
	return w
}

// ServerThread returns instance i's server-side thread, for migrating
// it: the netserver of an Rx stream, nil until its connection is
// accepted, or the netperf sender of a Tx stream.
func (w *Stream) ServerThread(i int) *kernel.Thread { return w.servers[i] }

// MeasureStart marks the beginning of the measurement window.
func (w *Stream) MeasureStart() {
	copy(w.baseline, w.received)
}

// Bytes returns application bytes moved since MeasureStart, summed
// over instances.
func (w *Stream) Bytes() int64 {
	var total int64
	for i, r := range w.received {
		total += r - w.baseline[i]
	}
	return total
}

// Errors returns failures recorded by the workload's goroutines (a
// refused Dial, a missing route); a non-empty list must fail the run's
// checks. Read it after the simulation window, not mid-run.
func (w *Stream) Errors() []string { return w.errs.All() }

// RRConfig configures a netperf TCP_RR (request/response) instance.
type RRConfig struct {
	MsgSize    int64
	ServerCore topology.CoreID
	ClientCore topology.CoreID
	ServerIP   uint32
	Port       uint16
	Proto      uint8 // eth.ProtoTCP (netperf TCP_RR) or eth.ProtoUDP (sockperf)
}

// RR is a running request/response workload.
type RR struct {
	Hist      *metrics.Histogram
	measuring bool
	errs      ErrList
}

// StartRR launches the ping-pong pair. Call MeasureStart after warmup;
// Hist then accumulates round-trip samples.
func StartRR(cl *core.Cluster, cfg RRConfig) *RR {
	if cfg.Port == 0 {
		cfg.Port = 13000
	}
	if cfg.Proto == 0 {
		cfg.Proto = eth.ProtoTCP
	}
	w := &RR{Hist: &metrics.Histogram{}}
	cl.Server.Stack.Listen(cfg.Port, func(s *netstack.Socket) {
		cl.Server.Kernel.Spawn("rr-echo", cfg.ServerCore, func(th *kernel.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				s.SendMsg(th, n, nil)
			}
		})
	})
	cl.Client.Kernel.Spawn("rr-client", cfg.ClientCore, func(th *kernel.Thread) {
		sock, err := cl.Client.Stack.Dial(th, cfg.ServerIP, cfg.Port, cfg.Proto)
		if err != nil {
			w.errs.Add("rr client: %v", err)
			return
		}
		for {
			t0 := th.Now()
			sock.SendMsg(th, cfg.MsgSize, nil)
			var got int64
			for got < cfg.MsgSize {
				n, _, ok := sock.Recv(th)
				if !ok {
					return
				}
				got += n
			}
			if w.measuring {
				w.Hist.Add(th.Now().Sub(t0))
			}
		}
	})
	return w
}

// MeasureStart begins recording round trips.
func (w *RR) MeasureStart() { w.measuring = true }

// Transactions returns completed measured round trips.
func (w *RR) Transactions() int { return w.Hist.Count() }

// Mean returns the mean measured RTT.
func (w *RR) Mean() time.Duration { return w.Hist.Mean() }

// Errors returns failures recorded by the workload's goroutines.
func (w *RR) Errors() []string { return w.errs.All() }
