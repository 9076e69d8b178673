package eth

import (
	"time"

	"ioctopus/internal/sim"
)

// Switch is a learning Ethernet switch: frames are forwarded to the
// port that last sourced the destination MAC, flooded otherwise. It
// supports static link-aggregation groups (EtherChannel / 802.3ad) whose
// member selection hashes the flow 5-tuple — the §2.5 bonding baseline,
// which deliberately gives the server no way to steer a flow to a
// particular member link.
type Switch struct {
	eng     *sim.Engine
	latency time.Duration
	ports   []*switchPort
	fdb     map[MAC]int // MAC -> port index (or LAG id via lagOf)
	lags    map[int][]int
	lagOf   map[int]int // member port -> LAG id
}

type switchPort struct {
	sw   *Switch
	idx  int
	wire *Wire
}

// Receive ingests a frame arriving at this switch port.
func (p *switchPort) Receive(f *Frame) { p.sw.forward(p.idx, f) }

// NewSwitch builds a switch with the given forwarding latency.
func NewSwitch(e *sim.Engine, latency time.Duration) *Switch {
	return &Switch{
		eng:     e,
		latency: latency,
		fdb:     make(map[MAC]int),
		lags:    make(map[int][]int),
		lagOf:   make(map[int]int),
	}
}

// Connect cables a device port to the switch with a named wire and
// returns the switch port index.
func (s *Switch) Connect(name string, dev Port) int {
	p := &switchPort{sw: s, idx: len(s.ports)}
	p.wire = NewWire(s.eng, name, p, dev)
	s.ports = append(s.ports, p)
	return p.idx
}

// ConnectWire is Connect returning the cable itself, so the device side
// can transmit on it (a NIC needs its wire handle).
func (s *Switch) ConnectWire(name string, dev Port) *Wire {
	return s.ports[s.Connect(name, dev)].wire
}

// AggregateLinks forms a LAG from member ports; traffic to a MAC learned
// on any member is distributed over the members by flow hash.
func (s *Switch) AggregateLinks(id int, members []int) {
	s.lags[id] = append([]int(nil), members...)
	for _, m := range members {
		s.lagOf[m] = id
	}
}

// forward implements learning + forwarding.
func (s *Switch) forward(inPort int, f *Frame) {
	s.fdb[f.Src] = inPort
	s.eng.After(s.latency, func() {
		out, ok := s.fdb[f.Dst]
		if !ok || f.Dst == Broadcast {
			for i, p := range s.ports {
				if i == inPort {
					continue
				}
				// Value copies must not inherit the original's pool
				// identity or cached delivery thunk.
				cp := *f
				cp.detach()
				p.wire.Send(p, &cp)
			}
			// The original is consumed here: only its copies travel on.
			f.Release()
			return
		}
		if lag, ok := s.lagOf[out]; ok {
			members := s.lags[lag]
			out = members[int(f.Flow.Hash())%len(members)]
		}
		s.ports[out].wire.Send(s.ports[out], f)
	})
}
