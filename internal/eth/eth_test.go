package eth

import (
	"testing"
	"testing/quick"
	"time"

	"ioctopus/internal/sim"
)

func TestMACFormatting(t *testing.T) {
	m := MACFromInt(0x0102030405)
	if m != (MAC{0x02, 0x01, 0x02, 0x03, 0x04, 0x05}) {
		t.Fatalf("mac = % x", m)
	}
	if MACFromInt(1) == MACFromInt(2) {
		t.Fatal("distinct ids must give distinct MACs")
	}
}

func TestFiveTupleReverse(t *testing.T) {
	ft := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 100, DstPort: 200, Proto: ProtoTCP}
	r := ft.Reverse()
	if r.SrcIP != 2 || r.DstIP != 1 || r.SrcPort != 200 || r.DstPort != 100 {
		t.Fatalf("reverse = %+v", r)
	}
	if r.Reverse() != ft {
		t.Fatal("double reverse should be identity")
	}
}

func TestFiveTupleReverseProperty(t *testing.T) {
	f := func(a, b uint32, p, q uint16, proto uint8) bool {
		ft := FiveTuple{SrcIP: a, DstIP: b, SrcPort: p, DstPort: q, Proto: proto}
		return ft.Reverse().Reverse() == ft
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFiveTupleHashStability(t *testing.T) {
	ft := FiveTuple{SrcIP: 10, DstIP: 20, SrcPort: 1000, DstPort: 2000, Proto: ProtoTCP}
	if ft.Hash() != ft.Hash() {
		t.Fatal("hash must be deterministic")
	}
	other := ft
	other.SrcPort++
	if ft.Hash() == other.Hash() {
		t.Fatal("adjacent tuples should hash apart (w.h.p.)")
	}
}

func TestSegmentPackets(t *testing.T) {
	cases := map[int64]int{0: 1, 1: 1, 1500: 1, 1501: 2, 64 * 1024: 44}
	for payload, want := range cases {
		if got := SegmentPackets(payload); got != want {
			t.Errorf("SegmentPackets(%d) = %d, want %d", payload, got, want)
		}
	}
}

func TestFrameWireBytes(t *testing.T) {
	f := &Frame{Payload: 3000, Packets: 2}
	if f.WireBytes() != 3000+2*HeaderBytes {
		t.Fatalf("wire bytes = %d", f.WireBytes())
	}
	// Zero packets defaults to one header.
	f2 := &Frame{Payload: 64}
	if f2.WireBytes() != 64+HeaderBytes {
		t.Fatalf("wire bytes = %d", f2.WireBytes())
	}
}

// sink is a trivial Port collecting frames.
type sink struct {
	mac MAC
	got []*Frame
	at  []sim.Time
	eng *sim.Engine
}

func (s *sink) Receive(f *Frame) {
	s.got = append(s.got, f)
	if s.eng != nil {
		s.at = append(s.at, s.eng.Now())
	}
}

func TestWireDelivery(t *testing.T) {
	e := sim.NewEngine()
	a := &sink{mac: MACFromInt(1), eng: e}
	b := &sink{mac: MACFromInt(2), eng: e}
	w := NewWire(e, "w", a, b)
	f := &Frame{Src: a.mac, Dst: b.mac, Payload: 12500 - HeaderBytes, Packets: 1}
	w.Send(a, f)
	e.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatal("frame not delivered")
	}
	// 12500 bytes at 12.5 GB/s = 1us, + 300ns propagation.
	if b.at[0] != sim.Time(1300) {
		t.Fatalf("arrival = %v, want 1300ns", b.at[0])
	}
	if len(a.got) != 0 {
		t.Fatal("sender should not hear its own frame")
	}
}

func TestWireFullDuplex(t *testing.T) {
	e := sim.NewEngine()
	a := &sink{mac: MACFromInt(1), eng: e}
	b := &sink{mac: MACFromInt(2), eng: e}
	w := NewWire(e, "w", a, b)
	w.Send(a, &Frame{Payload: 125000})
	w.Send(b, &Frame{Payload: 125000})
	e.RunUntilIdle()
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatal("directions should not contend")
	}
	if a.at[0] != b.at[0] {
		t.Fatalf("full duplex broken: %v vs %v", a.at[0], b.at[0])
	}
}

func TestSwitchLearningAndForwarding(t *testing.T) {
	e := sim.NewEngine()
	h1 := &sink{mac: MACFromInt(1), eng: e}
	h2 := &sink{mac: MACFromInt(2), eng: e}
	h3 := &sink{mac: MACFromInt(3), eng: e}
	sw2 := NewSwitch(e, 0)
	p1 := sw2.Connect("w", h1)
	p2 := sw2.Connect("w", h2)
	sw2.Connect("w", h3)
	// Unknown destination floods (reaching h2 and h3).
	sw2.forward(p1, &Frame{Src: h1.mac, Dst: h2.mac, Payload: 100, Packets: 1})
	e.RunUntilIdle()
	if len(h2.got) != 1 || len(h3.got) != 1 {
		t.Fatalf("flood reached h2 %d and h3 %d times, want 1 and 1", len(h2.got), len(h3.got))
	}
	// h2 replies; switch has learned h1's port, so no flood.
	sw2.forward(p2, &Frame{Src: h2.mac, Dst: h1.mac, Payload: 100, Packets: 1})
	e.RunUntilIdle()
	if len(h1.got) != 1 {
		t.Fatal("learned forward did not reach h1")
	}
	if len(h3.got) != 1 {
		t.Fatal("learned forward should not flood")
	}
}

func TestSwitchLAGHashesFlows(t *testing.T) {
	e := sim.NewEngine()
	sw := NewSwitch(e, 0)
	src := &sink{mac: MACFromInt(9), eng: e}
	m0 := &sink{mac: MACFromInt(10), eng: e}
	m1 := &sink{mac: MACFromInt(11), eng: e}
	pSrc := sw.Connect("w", src)
	pm0 := sw.Connect("w", m0)
	pm1 := sw.Connect("w", m1)
	sw.AggregateLinks(1, []int{pm0, pm1})

	// Teach the switch that dstMAC lives behind member 0.
	dst := MACFromInt(10)
	sw.forward(pm0, &Frame{Src: dst, Dst: src.mac, Payload: 1, Packets: 1})
	e.RunUntilIdle()

	// Many flows to dst: LAG must spread them across both members.
	for port := uint16(0); port < 64; port++ {
		f := &Frame{
			Src: src.mac, Dst: dst, Payload: 100, Packets: 1,
			Flow: FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000 + port, DstPort: 80, Proto: ProtoTCP},
		}
		sw.forward(pSrc, f)
	}
	e.RunUntilIdle()
	if len(m0.got) == 0 || len(m1.got) == 0 {
		t.Fatalf("LAG did not spread flows: m0=%d m1=%d", len(m0.got), len(m1.got))
	}
	// Crucially (§2.5): the host cannot choose the member — the same
	// flow always hashes to the same link.
	f := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	first := int(f.Hash()) % 2
	for i := 0; i < 10; i++ {
		if int(f.Hash())%2 != first {
			t.Fatal("flow hash must be stable per flow")
		}
	}
}

func TestSwitchConnectWireRoundTrip(t *testing.T) {
	// Full path through real wires: host A -> switch -> host B.
	e := sim.NewEngine()
	sw := NewSwitch(e, 200*time.Nanosecond)
	a := &sink{mac: MACFromInt(1), eng: e}
	b := &sink{mac: MACFromInt(2), eng: e}
	wa := sw.ConnectWire("w", a)
	wb := sw.ConnectWire("w", b)
	_ = wb

	// A sends to B: unknown MAC floods; B replies: learned unicast.
	wa.Send(a, &Frame{Src: a.mac, Dst: b.mac, Payload: 1000, Packets: 1})
	e.RunUntilIdle()
	if len(b.got) != 1 {
		t.Fatalf("b received %d frames", len(b.got))
	}
	wb2 := sw.ports[1].wire
	wb2.Send(b, &Frame{Src: b.mac, Dst: a.mac, Payload: 1000, Packets: 1})
	e.RunUntilIdle()
	if len(a.got) != 1 {
		t.Fatalf("a received %d frames", len(a.got))
	}
	// Arrival includes two wire hops + switch latency.
	if a.at[0] <= b.at[0] {
		t.Fatal("timestamps out of order")
	}
}
