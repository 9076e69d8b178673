// Package eth models the Ethernet substrate: MAC addresses, IP flow
// 5-tuples, frames (simulated at segment granularity with explicit
// packet counts), point-to-point wires, a learning switch, and the link
// aggregation (bonding) baseline the paper argues cannot solve NUDMA
// (§2.5).
package eth

import (
	"fmt"
	"time"

	"ioctopus/internal/sim"
)

// MAC is an Ethernet address.
type MAC [6]byte

// MACFromInt derives a locally administered MAC from an integer id.
func MACFromInt(id uint64) MAC {
	return MAC{0x02, byte(id >> 32), byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// Broadcast is the broadcast MAC.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Protocol numbers used by the flow 5-tuple.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FiveTuple uniquely identifies an IP flow (§2.3, footnote 1).
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// String formats the tuple.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%d:%d>%d:%d/%d", ft.SrcIP, ft.SrcPort, ft.DstIP, ft.DstPort, ft.Proto)
}

// Hash returns a stable flow hash (FNV-1a over the tuple), used for RSS
// and bonding hash policies.
func (ft FiveTuple) Hash() uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for i := 0; i < 4; i++ {
		mix(byte(ft.SrcIP >> (8 * i)))
		mix(byte(ft.DstIP >> (8 * i)))
	}
	mix(byte(ft.SrcPort))
	mix(byte(ft.SrcPort >> 8))
	mix(byte(ft.DstPort))
	mix(byte(ft.DstPort >> 8))
	mix(ft.Proto)
	return h
}

// MTU is the wire MTU used throughout (standard 1500-byte Ethernet).
const MTU = 1500

// HeaderBytes approximates per-packet Ethernet+IP+TCP header overhead.
const HeaderBytes = 66

// Frame is a unit of traffic on the wire. To keep event counts
// tractable the simulation moves "segments": a frame may represent up
// to a TSO window of MTU-sized packets; Packets says how many, and
// per-packet costs on both ends are charged per packet.
type Frame struct {
	Src, Dst MAC
	Flow     FiveTuple
	// Payload is application bytes carried.
	Payload int64
	// Packets is how many wire packets this segment represents.
	Packets int
	// Seq is a per-flow sequence number for ordering checks.
	Seq uint64
	// Meta carries simulation-side context (e.g. message ids).
	Meta any

	// Pool plumbing: frames leased from a FramePool carry their lease
	// and a cached delivery thunk so Wire.Send does not allocate a
	// closure per frame. Both are zero for plain &Frame{} frames, which
	// keep the original (allocating) behaviour. The device that
	// consumes a frame (a NIC after steering, a switch after flooding
	// copies) calls Release once the frame is dead.
	sim.Lease[Frame]
	rxPort Port
	// deliver is the cached f.runDeliver method value.
	deliver func()
}

// runDeliver hands the frame to the port recorded by Wire.Send.
func (f *Frame) runDeliver() {
	p := f.rxPort
	f.rxPort = nil
	p.Receive(f)
}

// detach strips pool identity from a frame copy (switch flooding makes
// value copies whose cached thunks would still point at the original).
func (f *Frame) detach() {
	f.Lease = sim.Lease[Frame]{}
	f.rxPort = nil
	f.deliver = nil
}

// FramePool recycles Frames for a transmitting device. With pooled
// false (the pre-pooling A/B baseline) Get returns fresh unpooled
// frames and Release is a no-op.
type FramePool = sim.Pool[Frame]

// NewFramePool returns a frame pool; pooled=false disables recycling.
func NewFramePool(pooled bool) *FramePool {
	return sim.NewPool(pooled, newFrame, resetFrame)
}

// newFrame builds a frame with its delivery thunk cached.
func newFrame() (*Frame, *sim.Lease[Frame]) {
	f := &Frame{}
	f.deliver = f.runDeliver
	return f, &f.Lease
}

// resetFrame drops a released frame's references.
func resetFrame(f *Frame) {
	f.Meta = nil
	f.rxPort = nil
}

// WireBytes returns the frame's size on the wire including per-packet
// header overhead.
func (f *Frame) WireBytes() int64 {
	n := f.Packets
	if n <= 0 {
		n = 1
	}
	return f.Payload + int64(n)*HeaderBytes
}

// SegmentPackets returns how many MTU packets carry `payload` bytes.
func SegmentPackets(payload int64) int {
	if payload <= 0 {
		return 1
	}
	n := (payload + MTU - 1) / MTU
	return int(n)
}

// Port is anything that can receive frames: a NIC port or a switch
// port.
type Port interface {
	// Receive ingests a frame; called when the last bit arrives.
	Receive(f *Frame)
}

// FaultFilter inspects a frame about to enter a wire direction and
// returns true to drop it (simulated loss/corruption — a corrupted
// frame fails FCS at the receiver and is discarded, which at segment
// granularity is a drop). Filters run after serialization cost would be
// paid in reality, but dropping before Transfer keeps the lost frame
// from occupying wire bandwidth, matching a cut cable more closely than
// a noisy one; at the loss rates the chaos harness injects the
// difference is negligible.
type FaultFilter func(f *Frame) bool

// Wire is a point-to-point full-duplex cable. Each direction is an
// independent bandwidth pipe.
type Wire struct {
	a, b Port
	ab   *sim.Pipe
	ba   *sim.Pipe

	// Per-direction fault filters; nil (the default) costs one pointer
	// compare per Send.
	abFilter FaultFilter
	baFilter FaultFilter
}

// Every cable is a 100GbE wire: its bandwidth and propagation latency.
const (
	wireBytesPerSec float64       = 12.5e9
	wireLatency     time.Duration = 300 * time.Nanosecond
)

// NewWire connects two ports back to back with a named cable.
func NewWire(e *sim.Engine, name string, a, b Port) *Wire {
	mk := func(suffix string) *sim.Pipe {
		return sim.NewPipe(e, sim.PipeConfig{
			Name:        name + suffix,
			BytesPerSec: wireBytesPerSec,
			BaseLatency: wireLatency,
		})
	}
	return &Wire{a: a, b: b, ab: mk(":a>b"), ba: mk(":b>a")}
}

// SetFaultFilter installs (or, with nil, removes) a loss/corruption
// filter on the direction out of `from`. Fault injection only.
func (w *Wire) SetFaultFilter(from Port, filt FaultFilter) {
	switch from {
	case w.a:
		w.abFilter = filt
	case w.b:
		w.baFilter = filt
	default:
		panic("eth: SetFaultFilter from a port not on this wire")
	}
}

// Pipe exposes the bandwidth pipe of the direction out of `from`
// (fault injection degrades it; metrics sample it).
func (w *Wire) Pipe(from Port) *sim.Pipe {
	if from == w.a {
		return w.ab
	}
	return w.ba
}

// Send transmits a frame from the given side; it is delivered to the
// other end after serialization + propagation.
func (w *Wire) Send(from Port, f *Frame) {
	var pipe *sim.Pipe
	var to Port
	var filt FaultFilter
	switch from {
	case w.a:
		pipe, to, filt = w.ab, w.b, w.abFilter
	case w.b:
		pipe, to, filt = w.ba, w.a, w.baFilter
	default:
		panic("eth: Send from a port not on this wire")
	}
	if filt != nil && filt(f) {
		f.Release()
		return
	}
	if f.deliver != nil {
		// Pooled frame: the cached thunk delivers to rxPort, saving a
		// closure per frame. A frame is on at most one wire at a time.
		f.rxPort = to
		pipe.Transfer(f.WireBytes(), f.deliver)
		return
	}
	pipe.Transfer(f.WireBytes(), func() { to.Receive(f) })
}
