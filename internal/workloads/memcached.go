package workloads

import (
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
)

// MemcachedConfig configures the key-value experiment of §5.1.3: one
// memcached server accessed by memslap clients, 256-byte keys and
// 512 KB values, with a configurable SET ratio.
type MemcachedConfig struct {
	// ServerCores hosts one worker thread per entry; connections are
	// assigned round-robin.
	ServerCores []topology.CoreID
	// ClientCores hosts one memslap instance per entry (paper: 14, one
	// per core of one client CPU).
	ClientCores []topology.CoreID
	KeySize     int64
	ValueSize   int64
	// SetRatio is the fraction of SET operations (0..1).
	SetRatio float64
	ServerIP uint32
	Port     uint16
	// OpCost is per-operation server work beyond the data movement
	// (hashing, slab/LRU bookkeeping, locking, the many small syscalls
	// a 512 KB value takes).
	OpCost time.Duration
	// SlabBytes sizes the value store (working set >> LLC).
	SlabBytes int64
	// Pipeline is how many requests each memslap keeps in flight
	// (memslap's concurrency), so the server, not the request-response
	// round trip, sets the pace.
	Pipeline int
}

// DefaultMemcachedConfig returns the paper's workload shape.
func DefaultMemcachedConfig(serverNode topology.NodeID, cl *core.Cluster) MemcachedConfig {
	var serverCores, clientCores []topology.CoreID
	for _, c := range cl.Server.Topo.CoresOn(serverNode) {
		serverCores = append(serverCores, c.ID)
	}
	for _, c := range cl.Client.Topo.CoresOn(0) {
		clientCores = append(clientCores, c.ID)
	}
	return MemcachedConfig{
		ServerCores: serverCores,
		ClientCores: clientCores,
		KeySize:     256,
		ValueSize:   512 * 1024,
		SetRatio:    0,
		ServerIP:    core.IPServerPF0,
		Port:        11211,
		OpCost:      900 * time.Microsecond,
		SlabBytes:   256 << 20,
		Pipeline:    1,
	}
}

// mcReq is the request header carried as segment metadata.
type mcReq struct {
	set   bool
	total int64 // request payload bytes (key, + value for SET)
}

// mcResp is the response header.
type mcResp struct {
	total int64
}

// Memcached is a running memcached+memslap workload.
type Memcached struct {
	cfg      MemcachedConfig
	txns     uint64
	baseline uint64
	slab     *memsys.Buffer
	errs     ErrList
}

// StartMemcached launches server and clients.
func StartMemcached(cl *core.Cluster, cfg MemcachedConfig) *Memcached {
	if cfg.Port == 0 {
		cfg.Port = 11211
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	w := &Memcached{cfg: cfg}
	serverNode := cl.Server.Topo.NodeOf(cfg.ServerCores[0])
	w.slab = cl.Server.Mem.NewBuffer("mc-slab", serverNode, cfg.SlabBytes).SetRandomAccess(true)

	// Server: one worker thread per accepted connection, round-robin
	// over the configured cores.
	next := 0
	cl.Server.Stack.Listen(cfg.Port, func(s *netstack.Socket) {
		coreID := cfg.ServerCores[next%len(cfg.ServerCores)]
		next++
		cl.Server.Kernel.Spawn("memcached", coreID, func(th *kernel.Thread) {
			s.SetOwner(th)
			var acc int64
			var cur *mcReq
			for {
				n, meta, ok := s.Recv(th)
				if !ok {
					return
				}
				if cur == nil {
					req, isReq := meta.(*mcReq)
					if !isReq {
						continue // stray segment
					}
					cur = req
				}
				acc += n
				if acc < cur.total {
					continue
				}
				req := cur
				cur, acc = nil, 0
				th.Exec(cfg.OpCost)
				if req.set {
					// Store the value into the slab.
					th.ExecFn(func() time.Duration {
						return cl.Server.Mem.CPUWrite(th.Node(), w.slab, cfg.ValueSize)
					})
					s.SendMsg(th, 64, &mcResp{total: 64})
				} else {
					// Serve the value from the slab.
					s.SendMsgFrom(th, w.slab, cfg.ValueSize, &mcResp{total: cfg.ValueSize})
				}
			}
		})
	})

	// Clients: memslap instances.
	for i, coreID := range cfg.ClientCores {
		i := i
		cl.Client.Kernel.Spawn("memslap", coreID, func(th *kernel.Thread) {
			sock, err := cl.Client.Stack.Dial(th, cfg.ServerIP, cfg.Port, eth.ProtoTCP)
			if err != nil {
				w.errs.Add("memslap instance %d: %v", i, err)
				return
			}
			rng := cl.RNG.Fork(int64(i))
			// Pipelined request issue: keep cfg.Pipeline requests in
			// flight; responses reassemble in order on the socket.
			pendingWant := make([]int64, 0, cfg.Pipeline)
			issue := func() {
				set := rng.Bernoulli(cfg.SetRatio)
				if set {
					sock.SendMsg(th, cfg.KeySize+cfg.ValueSize, &mcReq{set: true, total: cfg.KeySize + cfg.ValueSize})
					pendingWant = append(pendingWant, 64)
				} else {
					sock.SendMsg(th, cfg.KeySize, &mcReq{set: false, total: cfg.KeySize})
					pendingWant = append(pendingWant, cfg.ValueSize)
				}
			}
			for {
				for len(pendingWant) < cfg.Pipeline {
					issue()
				}
				want := pendingWant[0]
				pendingWant = pendingWant[1:]
				var got int64
				for got < want {
					n, _, ok := sock.Recv(th)
					if !ok {
						return
					}
					got += n
				}
				w.txns++
			}
		})
	}
	return w
}

// MeasureStart marks the measurement window start.
func (w *Memcached) MeasureStart() { w.baseline = w.txns }

// Transactions returns operations completed since MeasureStart.
func (w *Memcached) Transactions() uint64 { return w.txns - w.baseline }

// Errors returns failures recorded by the workload's goroutines.
func (w *Memcached) Errors() []string { return w.errs.All() }
