// Package netstack models the kernel network stack the paper's driver
// plugs into: sockets with a TCP-like segmentation/windowing model and a
// UDP model, Transmit Packet Steering (XPS) with the ooo_okay queue-
// switch rule, the Accelerated RFS callback fired on thread migration,
// and the netdevice abstraction drivers implement.
//
// Traffic is simulated at segment granularity (up to a 64 KB TSO/GRO
// window per event) with per-packet CPU costs charged arithmetically —
// the granularity at which the paper's evaluation reasons — while all
// memory, PCIe and interconnect traffic flows through the hardware
// models underneath. Connection setup (handshake/ARP) is control-plane
// work the paper never measures; it is modelled as a fixed-latency
// SYN/SYN-ACK round trip (connectLatency each way) that blocks
// the dialing thread, and the data path is fully simulated.
package netstack

import (
	"fmt"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/nic"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Stack costs, calibrated so the Broadwell testbed's absolute
// throughputs come out near the paper's (§5.1).
const (
	// syscallCost is the per-call entry/exit cost of send/recv.
	syscallCost time.Duration = 300 * time.Nanosecond
	// tcpTxSegment is per-segment transmit stack work (TSO path).
	tcpTxSegment time.Duration = 700 * time.Nanosecond
	// tcpTxPerPacket is the per-wire-packet transmit cost.
	tcpTxPerPacket time.Duration = 80 * time.Nanosecond
	// tcpRxPerPacket is the per-packet receive protocol cost.
	tcpRxPerPacket time.Duration = 150 * time.Nanosecond
	// napiPerPacket is the per-packet driver poll cost (softirq side).
	napiPerPacket time.Duration = 180 * time.Nanosecond
	// udpPerPacket is the per-packet cost of the UDP paths.
	udpPerPacket time.Duration = 450 * time.Nanosecond
	// ackLatency approximates the ACK round trip for window opening.
	ackLatency time.Duration = 10 * time.Microsecond
	// connectLatency is the one-way control-plane delay of connection
	// setup and teardown (SYN, SYN-ACK, FIN). Dial blocks the calling
	// thread for one round trip.
	connectLatency time.Duration = 10 * time.Microsecond
	// SendWindow bounds unacknowledged in-flight bytes per socket.
	SendWindow int64 = 4 << 20
	// RxBufBytes bounds undelivered payload per socket (the receive
	// buffer); TCP's window keeps in-flight below it, while UDP
	// arrivals beyond it are dropped. It is also a socket's first
	// advertised window.
	RxBufBytes int64 = 8 << 20
	// userBufBytes sizes each socket's user-space buffer.
	userBufBytes int64 = 64 * 1024
)

// Params are the stack's per-cluster settings. The zero value runs
// without retransmission.
type Params struct {
	// RetxTimeout arms the TCP retransmission timer: segments
	// unacknowledged for this long are re-sent with exponential backoff.
	// Zero (the default) disables retransmission entirely — every hook
	// on the datapath short-circuits — because the fault-free simulation
	// never loses a segment.
	RetxTimeout time.Duration
	// RetxMaxTries bounds retransmission attempts per segment; a segment
	// still unacknowledged after that many re-sends is abandoned (its
	// window bytes are released and stack/retx/abandoned counts it).
	// Zero means retry forever.
	RetxMaxTries int
}

// Frag is one fragment of an outgoing packet: the device's own
// fragment type, so a driver appends a packet's list as it is.
type Frag = nic.TxFrag

// Packet is the stack's skb: an outgoing segment handed to a netdevice.
type Packet struct {
	Flow    eth.FiveTuple
	DstMAC  eth.MAC
	Payload int64
	Packets int
	// Descriptors the driver posts for the segment (default 1).
	Descriptors int
	Frags       []Frag
	// Seq is the segment's per-flow sequence number, carried through the
	// device to the receiver (retransmission dedup).
	Seq  uint64
	Meta any
	// OnSent fires when the driver reaps the Tx completion.
	OnSent func()
}

// NetDevice is the driver-facing netdevice interface (the slice of
// net_device_ops the model needs).
type NetDevice interface {
	// Name is the interface name (eth0, octo0...).
	Name() string
	// HWAddr is the interface MAC.
	HWAddr() eth.MAC
	// TxQueueForCore is the driver's XPS mapping.
	TxQueueForCore(c topology.CoreID) int
	// TxInFlight returns descriptors outstanding on a queue (drives the
	// ooo_okay decision).
	TxInFlight(q int) int
	// Xmit hands a segment to the driver on the chosen queue without
	// blocking: the descriptor write and doorbell queue as work on t's
	// core, and when it is done the driver posts the packet to the
	// device and runs then, in engine context. The Packet (and its
	// Frags slice) stays valid until then runs and no longer: it may be
	// caller-owned scratch reused for the next segment, so the driver
	// copies what it needs before calling then.
	Xmit(t *kernel.Thread, pkt *Packet, txq int, then func())
	// SteerFlow is ndo_rx_flow_steer: steer the arriving flow toward
	// the given core (ARFS; IOctoRFS on the octo driver).
	SteerFlow(ft eth.FiveTuple, core topology.CoreID)
}

// Stack is one host's network stack instance.
type Stack struct {
	k      *kernel.Kernel
	name   string
	net    *Network
	params Params

	devs     []NetDevice
	devIPs   map[NetDevice]uint32
	ipDevs   map[uint32]NetDevice
	sockets  map[eth.FiveTuple]*Socket
	sockList []*Socket // creation order, for deterministic iteration
	listens  map[uint16]func(s *Socket)

	nextPort uint16

	rxSegments uint64
	rxDrops    uint64

	// Retransmission counters (stack/retx/... in the registry).
	retxTimeouts    uint64
	retxRetransmits uint64
	retxDuplicates  uint64
	retxAbandoned   uint64
}

// NewStack boots a stack on a kernel and registers it on the network.
func NewStack(k *kernel.Kernel, name string, net *Network, params Params) *Stack {
	st := &Stack{
		k:        k,
		name:     name,
		net:      net,
		params:   params,
		devIPs:   make(map[NetDevice]uint32),
		ipDevs:   make(map[uint32]NetDevice),
		sockets:  make(map[eth.FiveTuple]*Socket),
		listens:  make(map[uint16]func(*Socket)),
		nextPort: 40000,
	}
	// The ARFS callback: after a thread migrates, re-steer the flows of
	// every socket it owns toward its new core (§2.3). The kernel
	// invokes this only after the old queue is drained in Linux; the
	// model's delivery path is in-order per flow, so steering updates
	// cannot reorder.
	k.OnMigrate(func(t *kernel.Thread, from, to topology.CoreID) {
		for _, s := range st.sockList {
			if s.owner == t && st.sockets[s.ft] == s {
				s.dev.SteerFlow(s.ft.Reverse(), to)
			}
		}
	})
	net.register(st)
	return st
}

// AddDevice registers a netdevice with an IP address.
func (st *Stack) AddDevice(dev NetDevice, ip uint32) {
	st.devs = append(st.devs, dev)
	st.devIPs[dev] = ip
	st.ipDevs[ip] = dev
	st.net.addIP(ip, st, dev)
}

// Devices returns the registered netdevices.
func (st *Stack) Devices() []NetDevice { return st.devs }

// Listen registers an accept callback for a local port.
func (st *Stack) Listen(port uint16, accept func(s *Socket)) {
	st.listens[port] = accept
}

// Dial opens a connection from this host to dstIP:dstPort and blocks
// the calling thread for the setup round trip: the SYN reaches the
// listener after ConnectLatency (creating the remote socket and
// running the accept callback), and the SYN-ACK completes the pair
// another ConnectLatency later. Routing, interface and listener checks
// fail synchronously (the model's control plane is static, so a
// refused connection needs no round trip). The local device is chosen
// by route, i.e. the device whose wire reaches the destination — with
// one NIC per host, the only one.
func (st *Stack) Dial(t *kernel.Thread, dstIP uint32, dstPort uint16, proto uint8) (*Socket, error) {
	dstStack, dstDev := st.net.lookup(dstIP)
	if dstStack == nil {
		return nil, fmt.Errorf("netstack %s: no route to %d", st.name, dstIP)
	}
	if len(st.devs) == 0 {
		return nil, fmt.Errorf("netstack %s: no devices", st.name)
	}
	srcDev := st.devs[0]
	srcIP := st.devIPs[srcDev]
	srcMAC := srcDev.HWAddr()
	st.nextPort++
	ft := eth.FiveTuple{
		SrcIP: srcIP, DstIP: dstIP,
		SrcPort: st.nextPort, DstPort: dstPort,
		Proto: proto,
	}
	local := st.newSocket(ft, srcDev, t, dstDev.HWAddr())
	accept, ok := dstStack.listens[dstPort]
	if !ok {
		return nil, fmt.Errorf("netstack %s: connection refused on %d:%d", st.name, dstIP, dstPort)
	}
	eng := st.k.Engine()
	lat := connectLatency
	done := sim.NewSignal(eng)
	eng.After(lat, func() {
		remote := dstStack.newSocket(ft.Reverse(), dstDev, nil, srcMAC)
		remote.peer = local
		accept(remote)
		eng.After(lat, func() {
			local.peer = remote
			done.Broadcast()
		})
	})
	t.Wait(done)
	return local, nil
}

// newSocket creates and registers a socket.
func (st *Stack) newSocket(ft eth.FiveTuple, dev NetDevice, owner *kernel.Thread, peerMAC eth.MAC) *Socket {
	s := &Socket{
		stack:      st,
		ft:         ft,
		dev:        dev,
		owner:      owner,
		peerMAC:    peerMAC,
		txq:        -1,
		window:     SendWindow,
		advertised: RxBufBytes,
	}
	s.rxq = newSegQueue(st.k.Engine(), RxBufBytes)
	// Cache the hot-path cost and step callbacks once per socket; the
	// per-call state they read lives in the socket's scratch fields.
	s.sendCostFn = s.sendCost
	s.sendWindowFn = s.txWindow
	s.sendXmitFn = s.txXmit
	s.sendDoneFn = s.txDone
	s.recvCostFn = s.recvCost
	s.syscallFn = func() time.Duration { return syscallCost }
	s.recvStepFn = s.recvStep
	s.recvDoneFn = s.recvDone
	st.sockets[ft] = s
	st.sockList = append(st.sockList, s)
	return s
}

// DeliverRx is called by drivers (softirq context; the caller charges
// the CPU costs) to push a received segment into the owning socket.
func (st *Stack) DeliverRx(rxp *nic.RxPacket) {
	st.rxSegments++
	s, ok := st.sockets[rxp.Flow.Reverse()]
	if !ok {
		// Drop paths consume the packet: recycle it here, exactly once.
		st.rxDrops++
		rxp.Recycle()
		return
	}
	// With retransmission armed, a TCP segment carries a sequence
	// number the receiver dedups and acknowledges by name; otherwise
	// the ACK counts bytes (seq 0).
	var seq uint64
	if st.params.RetxTimeout > 0 && s.ft.Proto == eth.ProtoTCP {
		seq = rxp.Seq
	}
	if seq != 0 && s.seenSeq(seq) {
		// A retransmitted copy of a segment that already made it.
		// Consume it and re-acknowledge: the duplicate ACK lets the
		// sender clear its retransmit entry when the original's ACK
		// raced the timeout.
		st.retxDuplicates++
		payload := rxp.Payload
		rxp.Recycle()
		s.sendAck(payload, seq)
		return
	}
	if !s.rxq.tryPut(rxp) {
		// Receive-buffer overflow: dropped before being marked received
		// and not acknowledged, so a sender's timer recovers the
		// segment.
		st.rxDrops++
		rxp.Recycle()
		return
	}
	if seq != 0 {
		s.markSeq(seq)
	}
	// TCP acknowledges on kernel receipt and advertises the remaining
	// receive-buffer space; the sender's usable window shrinks as the
	// buffer fills and reopens as the application consumes (Recv).
	s.sendAck(rxp.Payload, seq)
}

// RxStackCost prices the protocol receive work for a segment (charged
// by the driver inside the NAPI poll).
func (st *Stack) RxStackCost(rxp *nic.RxPacket) time.Duration {
	per := tcpRxPerPacket
	if rxp.Flow.Proto == eth.ProtoUDP {
		per = udpPerPacket
	}
	return time.Duration(rxp.Packets) * (per + napiPerPacket)
}

// RxBurstCost prices the protocol receive work for a segment delivered
// by a poll-mode driver: the per-protocol cost only. The NAPI
// per-packet overhead and the IRQ entry the interrupt path pays never
// happen — the PMD loop hands the segment straight to the socket, which
// is the kernel-bypass saving the busy-poll datapath measures.
func (st *Stack) RxBurstCost(rxp *nic.RxPacket) time.Duration {
	per := tcpRxPerPacket
	if rxp.Flow.Proto == eth.ProtoUDP {
		per = udpPerPacket
	}
	return time.Duration(rxp.Packets) * per
}

// DeliverRxBurst pushes one polled batch into the owning sockets,
// skipping the IRQ→softirq→NAPI chain, and returns the protocol cost of
// the batch so the poll core can charge it to its iteration. Socket
// semantics (acknowledgments, window updates, overflow drops, recycle
// duties) are identical to DeliverRx — only the path and its price
// differ.
func (st *Stack) DeliverRxBurst(batch []*nic.RxPacket) time.Duration {
	var cost time.Duration
	for _, rxp := range batch {
		cost += st.RxBurstCost(rxp)
		st.DeliverRx(rxp)
	}
	return cost
}

// Network is the static control plane joining stacks: IP routing and
// ARP resolution for socket setup. Data traffic never flows through it.
type Network struct {
	stacks []*Stack
	byIP   map[uint32]ipEntry
}

type ipEntry struct {
	st  *Stack
	dev NetDevice
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{byIP: make(map[uint32]ipEntry)}
}

func (n *Network) register(st *Stack) { n.stacks = append(n.stacks, st) }

func (n *Network) addIP(ip uint32, st *Stack, dev NetDevice) {
	if _, dup := n.byIP[ip]; dup {
		panic(fmt.Sprintf("netstack: duplicate IP %d", ip))
	}
	n.byIP[ip] = ipEntry{st: st, dev: dev}
}

func (n *Network) lookup(ip uint32) (*Stack, NetDevice) {
	e, ok := n.byIP[ip]
	if !ok {
		return nil, nil
	}
	return e.st, e.dev
}
