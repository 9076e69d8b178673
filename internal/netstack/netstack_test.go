package netstack

import (
	"reflect"
	"testing"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/nic"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// fakeDev is a loopback NetDevice: Xmit delivers straight back into the
// destination stack, recording steering and queue choices.
type fakeDev struct {
	name    string
	mac     eth.MAC
	net     *Network
	sent    []*Packet
	txqs    []int // the queue each Xmit used
	steered map[eth.FiveTuple]topology.CoreID
	// inFlight simulates a busy queue for the ooo_okay test.
	inFlight map[int]int
	mem      *memsys.System
	eng      *sim.Engine
}

func newFakeDev(name string, id uint64, net *Network, mem *memsys.System, eng *sim.Engine) *fakeDev {
	return &fakeDev{
		name: name, mac: eth.MACFromInt(id), net: net,
		steered:  make(map[eth.FiveTuple]topology.CoreID),
		inFlight: make(map[int]int),
		mem:      mem,
		eng:      eng,
	}
}

func (d *fakeDev) Name() string                                  { return d.name }
func (d *fakeDev) HWAddr() eth.MAC                               { return d.mac }
func (d *fakeDev) TxQueueForCore(c topology.CoreID) int          { return int(c) }
func (d *fakeDev) TxInFlight(q int) int                          { return d.inFlight[q] }
func (d *fakeDev) SteerFlow(ft eth.FiveTuple, c topology.CoreID) { d.steered[ft] = c }

// Xmit loops the segment back into whatever stack owns the destination
// flow, via a small delay (so in-order delivery holds). It charges no
// CPU, so it runs then at once. Per the NetDevice contract the
// incoming Packet is caller-owned scratch, valid only until then runs,
// so the fake copies it before retaining.
func (d *fakeDev) Xmit(t *kernel.Thread, pkt *Packet, txq int, then func()) {
	defer then()
	cp := *pkt
	cp.Frags = append([]Frag(nil), pkt.Frags...)
	pkt = &cp
	d.sent = append(d.sent, pkt)
	d.txqs = append(d.txqs, txq)
	st, _ := d.net.lookup(pkt.Flow.DstIP)
	if st == nil {
		return
	}
	buf := d.mem.NewBuffer(0, maxInt64(pkt.Payload, 1))
	rxp := &nic.RxPacket{
		Buf:     buf,
		Payload: pkt.Payload,
		Packets: pkt.Packets,
		Flow:    pkt.Flow,
		Meta:    pkt.Meta,
	}
	d.eng.After(time.Microsecond, func() { st.DeliverRx(rxp) })
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// stackRig builds two stacks joined by fake loopback devices.
type stackRig struct {
	eng    *sim.Engine
	ka, kb *kernel.Kernel
	sa, sb *Stack
	da, db *fakeDev
}

func newStackRig(t *testing.T) *stackRig {
	t.Helper()
	eng := sim.NewEngine()
	topo := topology.DualBroadwell()
	net := NewNetwork()
	mk := func(name string) (*kernel.Kernel, *Stack) {
		fab := interconnect.New(eng, topo)
		mem := memsys.New(eng, topo, fab, true)
		k := kernel.New(eng, topo, mem)
		return k, NewStack(k, name, net, Params{})
	}
	ka, sa := mk("a")
	kb, sb := mk("b")
	da := newFakeDev("devA", 1, net, ka.Memory(), eng)
	db := newFakeDev("devB", 2, net, kb.Memory(), eng)
	sa.AddDevice(da, 0x0A000001)
	sb.AddDevice(db, 0x0A000002)
	return &stackRig{eng: eng, ka: ka, kb: kb, sa: sa, sb: sb, da: da, db: db}
}

func TestDialCreatesSocketPair(t *testing.T) {
	r := newStackRig(t)
	accepted := false
	r.sb.Listen(80, func(s *Socket) { accepted = true })
	var sock *Socket
	r.ka.Spawn("c", 0, func(th *kernel.Thread) {
		var err error
		sock, err = r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	r.eng.RunFor(time.Millisecond)
	if !accepted || sock == nil {
		t.Fatal("dial did not complete")
	}
	if sock.Flow().DstPort != 80 || sock.Flow().SrcIP != 0x0A000001 {
		t.Fatalf("flow = %+v", sock.Flow())
	}
	r.eng.Drain()
}

func TestDialErrors(t *testing.T) {
	r := newStackRig(t)
	r.ka.Spawn("c", 0, func(th *kernel.Thread) {
		if _, err := r.sa.Dial(th, 0xDEAD, 80, eth.ProtoTCP); err == nil {
			t.Error("dial to unknown IP should fail")
		}
		if _, err := r.sa.Dial(th, 0x0A000002, 81, eth.ProtoTCP); err == nil {
			t.Error("dial to non-listening port should be refused")
		}
	})
	r.eng.RunFor(time.Millisecond)
	r.eng.Drain()
}

func TestSendRecvRoundTrip(t *testing.T) {
	r := newStackRig(t)
	var got int64
	var gotMeta any
	r.sb.Listen(80, func(s *Socket) {
		r.kb.Spawn("srv", 0, func(th *kernel.Thread) {
			n, meta, ok := s.Recv(th)
			if !ok {
				return
			}
			got, gotMeta = n, meta
		})
	})
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
		sock.SendMsg(th, 4096, "hello")
	})
	r.eng.RunFor(10 * time.Millisecond)
	if got != 4096 || gotMeta != "hello" {
		t.Fatalf("got %d/%v", got, gotMeta)
	}
	r.eng.Drain()
}

func TestTSOSegmentation(t *testing.T) {
	r := newStackRig(t)
	r.sb.Listen(80, func(s *Socket) {})
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
		sock.Send(th, 200_000) // > 3 TSO segments
	})
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.da.sent) != 4 { // 3x64K + remainder
		t.Fatalf("segments = %d, want 4", len(r.da.sent))
	}
	var total int64
	for _, p := range r.da.sent {
		total += p.Payload
		if p.Payload > 64*1024 {
			t.Fatalf("segment exceeds TSO: %d", p.Payload)
		}
		if p.Packets != eth.SegmentPackets(p.Payload) {
			t.Fatalf("packet count wrong: %d for %d bytes", p.Packets, p.Payload)
		}
	}
	if total != 200_000 {
		t.Fatalf("total = %d", total)
	}
	r.eng.Drain()
}

// TestXPSFollowsCoreWithOOOGuard: after a migration a sender keeps its
// old Tx queue until that queue drains (ooo_okay, §2.3 and §4.2), on
// the copying path and the sendfile path alike.
func TestXPSFollowsCoreWithOOOGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(s *Socket, th *kernel.Thread, buf *memsys.Buffer)
	}{
		{"Send", func(s *Socket, th *kernel.Thread, _ *memsys.Buffer) { s.Send(th, 1000) }},
		{"SendFrags", func(s *Socket, th *kernel.Thread, buf *memsys.Buffer) {
			s.SendFrags(th, []Frag{{Buf: buf, Bytes: 600}, {Buf: buf, Bytes: 400}}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newStackRig(t)
			r.sb.Listen(80, func(s *Socket) {})
			buf := r.ka.Alloc(1, 1000)
			var th1 *kernel.Thread
			th1 = r.ka.Spawn("cli", 3, func(th *kernel.Thread) {
				sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
				tc.send(sock, th, buf)
				// Simulate queue 3 still busy, then migrate to core 7
				// and send: the stack must stick to queue 3 (ooo_okay
				// false).
				r.da.inFlight[3] = 2
				r.ka.SetAffinity(th1, 7)
				tc.send(sock, th, buf)
				// Queue drained: next send switches to core 7's queue.
				r.da.inFlight[3] = 0
				tc.send(sock, th, buf)
			})
			r.eng.RunFor(10 * time.Millisecond)
			if len(r.da.sent) != 3 {
				t.Fatalf("sent = %d", len(r.da.sent))
			}
			// The first send takes core 3's queue, the second stays on
			// it while it is busy, and the third switches to core 7's
			// once it drained.
			if want := []int{3, 3, 7}; !reflect.DeepEqual(r.da.txqs, want) {
				t.Errorf("queues used = %v, want %v", r.da.txqs, want)
			}
			r.eng.Drain()
		})
	}
}

func TestMigrationFiresARFSCallback(t *testing.T) {
	r := newStackRig(t)
	r.sb.Listen(80, func(s *Socket) {})
	var th *kernel.Thread
	th = r.ka.Spawn("cli", 2, func(tt *kernel.Thread) {
		sock, _ := r.sa.Dial(tt, 0x0A000002, 80, eth.ProtoTCP)
		sock.SetOwner(tt)
		tt.Sleep(time.Millisecond)
	})
	r.eng.RunFor(100 * time.Microsecond)
	if len(r.da.steered) != 1 {
		t.Fatalf("SetOwner should steer once, got %d", len(r.da.steered))
	}
	r.ka.SetAffinity(th, 17)
	r.eng.RunFor(time.Millisecond)
	for ft, c := range r.da.steered {
		if c != 17 {
			t.Fatalf("flow %v steered to %d, want 17", ft, c)
		}
		// The steered tuple is the arriving direction (reversed).
		if ft.DstIP != 0x0A000001 {
			t.Fatalf("steered tuple not reversed: %v", ft)
		}
	}
	r.eng.Drain()
}

func TestUDPHasNoWindow(t *testing.T) {
	r := newStackRig(t)
	r.sb.Listen(80, func(s *Socket) {})
	sent := 0
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoUDP)
		// Far more than the TCP window without any Recv on the other
		// side: UDP must never block.
		for i := 0; i < 300; i++ {
			sock.Send(th, 64*1024)
			sent++
		}
	})
	r.eng.RunFor(200 * time.Millisecond)
	if sent != 300 {
		t.Fatalf("UDP sender blocked after %d sends", sent)
	}
	r.eng.Drain()
}

func TestUDPDropsWhenReceiveBufferFull(t *testing.T) {
	r := newStackRig(t)
	r.sb.Listen(80, func(s *Socket) {}) // nobody ever Recvs
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoUDP)
		for i := 0; i < 300; i++ { // 300 x 64KB >> 8MB buffer
			sock.Send(th, 64*1024)
		}
	})
	r.eng.RunFor(200 * time.Millisecond)
	if r.sb.rxDrops == 0 {
		t.Fatal("expected UDP drops at the full receive buffer")
	}
	r.eng.Drain()
}

func TestTCPWindowThrottlesToConsumer(t *testing.T) {
	r := newStackRig(t)
	consumed := 0
	r.sb.Listen(80, func(s *Socket) {
		r.kb.Spawn("srv", 0, func(th *kernel.Thread) {
			for {
				th.Sleep(time.Millisecond) // slow consumer
				if _, _, ok := s.Recv(th); !ok {
					return
				}
				consumed++
			}
		})
	})
	sent := 0
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
		for i := 0; i < 1000; i++ {
			sock.Send(th, 64*1024)
			sent++
		}
	})
	r.eng.RunFor(50 * time.Millisecond)
	if r.sb.rxDrops != 0 {
		t.Fatalf("TCP must not drop at a slow consumer: %d drops", r.sb.rxDrops)
	}
	// Sender must be throttled: in-flight bounded by window+buffer,
	// so sent can't run away from consumed.
	maxAhead := int((SendWindow+RxBufBytes)/(64*1024)) + 2
	if sent > consumed+maxAhead {
		t.Fatalf("window failed: sent %d, consumed %d", sent, consumed)
	}
	r.eng.Drain()
}

func TestSocketClose(t *testing.T) {
	r := newStackRig(t)
	var srv *Socket
	r.sb.Listen(80, func(s *Socket) { srv = s })
	exited := false
	r.ka.Spawn("cli", 0, func(th *kernel.Thread) {
		sock, _ := r.sa.Dial(th, 0x0A000002, 80, eth.ProtoTCP)
		th.Sleep(time.Millisecond)
		sock.Close()
	})
	r.kb.Spawn("srv", 0, func(th *kernel.Thread) {
		for srv == nil {
			th.Sleep(100 * time.Microsecond)
		}
		if _, _, ok := srv.Recv(th); ok {
			t.Error("Recv on closed socket should report !ok")
		}
		exited = true
	})
	r.eng.RunFor(20 * time.Millisecond)
	if !exited {
		t.Fatal("receiver did not unblock on Close")
	}
	r.eng.Drain()
}

// TestSegQueueDequeueAccounting covers the receive queue's byte
// accounting, capacity bound and close. Its FIFO storage, slot clearing
// and backing-array reuse are sim.TestQueueFIFO's.
func TestSegQueueDequeueAccounting(t *testing.T) {
	eng := sim.NewEngine()
	q := newSegQueue(eng, 10000)
	a := &nic.RxPacket{Payload: 4000}
	b := &nic.RxPacket{Payload: 5000}
	if !q.tryPut(a) || !q.tryPut(b) {
		t.Fatal("puts within capacity must succeed")
	}
	if q.tryPut(&nic.RxPacket{Payload: 2000}) {
		t.Fatal("put beyond capBytes must be refused")
	}
	if q.free() != 1000 {
		t.Fatalf("free = %d, want 1000", q.free())
	}
	if got := q.dequeue(); got != a {
		t.Fatalf("dequeue = %v, want a", got)
	}
	if q.free() != 5000 || q.items.Len() != 1 {
		t.Fatalf("free = %d len = %d after dequeue", q.free(), q.items.Len())
	}
	if got := q.dequeue(); got != b {
		t.Fatalf("dequeue = %v, want b", got)
	}
	if q.free() != 10000 || q.items.Len() != 0 {
		t.Fatalf("free = %d len = %d when drained", q.free(), q.items.Len())
	}
	q.close()
	if q.tryPut(a) {
		t.Fatal("closed queue must refuse puts")
	}
	eng.Drain()
}

// TestSegQueueStaysBoundedWhileNeverEmpty: a receive queue that always
// holds a segment never drains. Thousands of puts and gets with one or
// two segments live keep FIFO order and the byte count; that its
// backing array stays bounded meanwhile is sim.TestQueueFIFO's check.
func TestSegQueueStaysBoundedWhileNeverEmpty(t *testing.T) {
	eng := sim.NewEngine()
	q := newSegQueue(eng, 1<<20)
	next := &nic.RxPacket{Payload: 1}
	if !q.tryPut(next) {
		t.Fatal("put within capacity must succeed")
	}
	for i := 0; i < 10000; i++ {
		p := &nic.RxPacket{Payload: 1}
		if !q.tryPut(p) {
			t.Fatalf("put %d refused", i)
		}
		if got := q.dequeue(); got != next {
			t.Fatalf("dequeue %d out of FIFO order", i)
		}
		next = p
		if q.items.Len() != 1 || q.bytes != 1 {
			t.Fatalf("after %d rounds: len = %d, bytes = %d, want 1 and 1", i, q.items.Len(), q.bytes)
		}
	}
	eng.Drain()
}

func TestDuplicateIPPanics(t *testing.T) {
	r := newStackRig(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate IP should panic")
		}
		r.eng.Drain()
	}()
	r.sa.AddDevice(newFakeDev("dup", 9, r.sa.net, r.ka.Memory(), r.eng), 0x0A000002)
}
