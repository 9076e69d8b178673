// Package faults is the deterministic fault-injection subsystem: a
// seed-driven schedule of failures armed against an assembled system.
// The paper's core resilience claim (§2.5) — the octopus device can
// migrate every flow to the surviving PF when a port dies — is only
// testable in a world where ports actually die, so this package teaches
// the simulation to break things on purpose:
//
//   - NIC PF link-down, link-up and link-flap (the device keeps its
//     PCIe side alive, so rings drain while frames die at the port);
//   - probabilistic, burst, and corruption loss on the Ethernet wire;
//   - interconnect degradation (bandwidth cut / latency inflation on a
//     fabric link, applied and restored mid-run);
//   - core stalls (SMI/thermal events; a long stall is a core gone
//     offline).
//
// Everything is scheduled on the simulation engine from a Plan whose
// Seed forks the loss RNG, so the same plan against the same cluster
// produces byte-identical runs. An empty plan arms nothing and leaves
// every hot path exactly as fast as an un-faulted build: the hooks this
// package drives are nil/false-checked defaults in their home packages.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/nic"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Kind is a fault type.
type Kind int

// Fault kinds.
const (
	// LinkDown takes a NIC PF's link down at At.
	LinkDown Kind = iota
	// LinkUp restores a PF's link at At.
	LinkUp
	// LinkFlap takes the link down at At and back up at At+Duration.
	LinkFlap
	// Loss drops each frame on a wire direction with probability Prob
	// during [At, At+Duration).
	Loss
	// Burst drops every frame on a wire direction during
	// [At, At+Duration) (a contiguous loss burst).
	Burst
	// Corrupt flips bits with probability Prob during [At, At+Duration);
	// at segment granularity a corrupted frame fails FCS at the receiver
	// and is discarded, so it behaves as loss but is counted separately.
	Corrupt
	// Degrade scales a fabric link's bandwidth (BWFactor) and base
	// latency (LatFactor) during [At, At+Duration), restoring the
	// healthy values at the end.
	Degrade
	// Stall occupies a core with non-preemptible busywork for Duration
	// starting at At; a Duration longer than the run models the core
	// going offline.
	Stall
	// FirmwareReset wipes the server NIC's steering tables at At: every
	// programmed flow rule vanishes and SteerRx degrades to the
	// firmware's fallback (RSS / MAC-only) until the drivers replay
	// their journaled rules.
	FirmwareReset
	// QueueStall freezes completion delivery on one queue pair (PF,
	// Queue) during [At, At+Duration): DMA still lands and descriptors
	// are still consumed, but completion writebacks are held
	// device-side until the window ends or the driver resets the queue.
	QueueStall
	// PollerStall wedges the busy-poll loops on server node Node for
	// Duration starting at At — a hung device read burning the
	// dedicated poll core (busypoll datapath only).
	PollerStall
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkFlap:
		return "link-flap"
	case Loss:
		return "loss"
	case Burst:
		return "burst"
	case Corrupt:
		return "corrupt"
	case Degrade:
		return "degrade"
	case Stall:
		return "stall"
	case FirmwareReset:
		return "fw-reset"
	case QueueStall:
		return "queue-stall"
	case PollerStall:
		return "poller-stall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Dir selects a wire direction for loss faults.
type Dir int

// Wire directions.
const (
	// ClientToServer drops frames the client transmits.
	ClientToServer Dir = iota
	// ServerToClient drops frames the server transmits.
	ServerToClient
)

// Event is one scheduled fault.
type Event struct {
	// At is the fault's offset from the instant the plan is armed.
	At time.Duration
	// Kind selects the fault; the remaining fields parameterize it.
	Kind Kind
	// PF targets a NIC physical function (LinkDown/LinkUp/LinkFlap).
	PF int
	// Duration is the fault window (LinkFlap/Loss/Burst/Corrupt/
	// Degrade/Stall).
	Duration time.Duration
	// Prob is the per-frame probability (Loss/Corrupt).
	Prob float64
	// Dir is the wire direction (Loss/Burst/Corrupt).
	Dir Dir
	// From/To name the fabric link (Degrade).
	From, To topology.NodeID
	// BWFactor/LatFactor scale the link (Degrade).
	BWFactor, LatFactor float64
	// Core is the stall target (Stall).
	Core topology.CoreID
	// Queue is the per-PF queue index (QueueStall).
	Queue int
	// Node is the server NUMA node whose poll loops wedge (PollerStall).
	Node topology.NodeID
}

// Plan is a seeded fault schedule.
type Plan struct {
	// Seed forks the loss RNG; the same seed and events replay
	// byte-identically.
	Seed int64
	// Events fire relative to the arm instant, in any order.
	Events []Event
}

// Targets binds a plan to the pieces of an assembled system it acts on.
type Targets struct {
	// Engine schedules the fault events.
	Engine *sim.Engine
	// NIC is the multi-PF device link faults act on.
	NIC *nic.NIC
	// Wire carries the loss faults; ServerPort/ClientPort identify its
	// two ends (the sending side selects the direction).
	Wire       *eth.Wire
	ServerPort eth.Port
	ClientPort eth.Port
	// Fabric takes the interconnect degradations.
	Fabric *interconnect.Fabric
	// Kernel takes the core stalls.
	Kernel *kernel.Kernel
	// Pollers are the server drivers' busy-poll loops (busypoll
	// datapath only, empty otherwise); PollerStall wedges every loop
	// pinned to the targeted node — a hung core hangs all of them.
	Pollers []*kernel.Poller
}

// winKey identifies the piece of mutable fault state a windowed event
// arms and disarms: loss/corrupt/burst probability per wire direction,
// the degradation of one fabric link, or one PF's link state. Two
// windows with the same key must not overlap — the first window's end
// event would disarm (or re-arm) state the second window still owns.
type winKey struct {
	kind Kind
	a, b int
}

// stateKey maps an event to the state it owns, and whether it is
// windowed at all (Stall occupies a core queue, it owns no shared
// toggle; LinkDown/LinkUp are edges, handled separately).
func stateKey(ev Event) (winKey, bool) {
	switch ev.Kind {
	case Loss, Burst, Corrupt:
		return winKey{kind: ev.Kind, a: int(ev.Dir)}, true
	case Degrade:
		return winKey{kind: Degrade, a: int(ev.From), b: int(ev.To)}, true
	case LinkFlap:
		return winKey{kind: LinkFlap, a: ev.PF}, true
	case QueueStall:
		return winKey{kind: QueueStall, a: ev.PF, b: ev.Queue}, true
	case PollerStall:
		// A wedge is one long iteration, not a toggle, but two wedges of
		// the same node's loops inside one window would stack into a
		// longer outage than either event describes; reject the overlap.
		return winKey{kind: PollerStall, a: int(ev.Node)}, true
	default:
		return winKey{}, false
	}
}

// String names the state a key guards, for error messages.
func (k winKey) String() string {
	switch k.kind {
	case Loss, Burst, Corrupt:
		return fmt.Sprintf("%s windows on direction %d", k.kind, k.a)
	case Degrade:
		return fmt.Sprintf("degrade windows on link %d->%d", k.a, k.b)
	case QueueStall:
		return fmt.Sprintf("queue-stall windows on PF %d queue %d", k.a, k.b)
	case PollerStall:
		return fmt.Sprintf("poller-stall windows on node %d", k.a)
	default:
		return fmt.Sprintf("link-flap windows on PF %d", k.a)
	}
}

// validateSchedule rejects schedules whose windowed events fight over
// the same state: two overlapping loss windows on one wire direction
// (the first window's end event would zero the probability mid-way
// through the second), overlapping degradations of the same fabric
// link (the first restore resets the link while the second degradation
// is live), overlapping flaps of one PF, and discrete link-up/down
// events landing inside a flap window on the same PF. A window whose
// end does not fit in a time.Duration is rejected too, since its end
// would wrap negative and hide every overlap. It needs no targets;
// Validate (and therefore Arm) ends with it.
func (p *Plan) validateSchedule() error {
	type win struct {
		idx      int
		from, to time.Duration
	}
	wins := map[winKey][]win{}
	for i, ev := range p.Events {
		if k, ok := stateKey(ev); ok && ev.Duration > 0 {
			if ev.At > math.MaxInt64-ev.Duration {
				return fmt.Errorf("faults: event %d (%s): window %v + %v ends past the largest offset",
					i, ev.Kind, ev.At, ev.Duration)
			}
			wins[k] = append(wins[k], win{idx: i, from: ev.At, to: ev.At + ev.Duration})
		}
	}
	keys := make([]winKey, 0, len(wins))
	for k := range wins {
		keys = append(keys, k)
	}
	// Sorted keys keep the reported pair stable when several groups
	// overlap: the error is part of rendered output.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		ws := wins[k]
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				// Half-open windows [from,to): back-to-back is fine,
				// any true overlap is not.
				if ws[i].from < ws[j].to && ws[j].from < ws[i].to {
					return fmt.Errorf("faults: events %d and %d: overlapping %s",
						ws[i].idx, ws[j].idx, k)
				}
			}
		}
	}
	// Discrete link transitions inside a flap window on the same PF
	// would flip the link under the flap's feet (an early link-up undoes
	// the outage; the flap's own restore then masks the discrete down).
	for i, ev := range p.Events {
		if ev.Kind != LinkDown && ev.Kind != LinkUp {
			continue
		}
		for _, w := range wins[winKey{kind: LinkFlap, a: ev.PF}] {
			if ev.At > w.from && ev.At < w.to {
				return fmt.Errorf("faults: event %d (%s) fires inside event %d's link-flap window on PF %d",
					i, ev.Kind, w.idx, ev.PF)
			}
		}
	}
	return nil
}

// Validate rejects malformed plans up front (probabilities out of
// range, unknown PFs, degenerate windows, windows racing for the same
// state) so faults never fire half configured mid-run.
func (p *Plan) Validate(tg Targets) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d (%s): negative offset %v", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case LinkDown, LinkUp, LinkFlap:
			if tg.NIC == nil {
				return fmt.Errorf("faults: event %d (%s): no NIC target", i, ev.Kind)
			}
			if ev.PF < 0 || ev.PF >= len(tg.NIC.PFs()) {
				return fmt.Errorf("faults: event %d (%s): NIC %s has no PF %d", i, ev.Kind, tg.NIC.Name(), ev.PF)
			}
			if ev.Kind == LinkFlap && ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (link-flap): needs positive duration", i)
			}
		case Loss, Burst, Corrupt:
			if tg.Wire == nil {
				return fmt.Errorf("faults: event %d (%s): no wire target", i, ev.Kind)
			}
			if ev.Prob < 0 || ev.Prob > 1 {
				return fmt.Errorf("faults: event %d (%s): probability %v out of [0,1]", i, ev.Kind, ev.Prob)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (%s): needs positive duration", i, ev.Kind)
			}
		case Degrade:
			if tg.Fabric == nil {
				return fmt.Errorf("faults: event %d (degrade): no fabric target", i)
			}
			if ev.From == ev.To {
				return fmt.Errorf("faults: event %d (degrade): link %d->%d is not a fabric link", i, ev.From, ev.To)
			}
			if int(ev.From) < 0 || int(ev.From) >= tg.Fabric.Nodes() || int(ev.To) < 0 || int(ev.To) >= tg.Fabric.Nodes() {
				return fmt.Errorf("faults: event %d (degrade): link %d->%d outside %d-node fabric", i, ev.From, ev.To, tg.Fabric.Nodes())
			}
			if ev.BWFactor <= 0 || ev.LatFactor <= 0 {
				return fmt.Errorf("faults: event %d (degrade): factors must be positive (bw=%v lat=%v)", i, ev.BWFactor, ev.LatFactor)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (degrade): needs positive duration", i)
			}
		case Stall:
			if tg.Kernel == nil {
				return fmt.Errorf("faults: event %d (stall): no kernel target", i)
			}
			if int(ev.Core) < 0 || int(ev.Core) >= tg.Kernel.NumCores() {
				return fmt.Errorf("faults: event %d (stall): no core %d", i, ev.Core)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (stall): needs positive duration", i)
			}
		case FirmwareReset:
			if tg.NIC == nil {
				return fmt.Errorf("faults: event %d (fw-reset): no NIC target", i)
			}
		case QueueStall:
			if tg.NIC == nil {
				return fmt.Errorf("faults: event %d (queue-stall): no NIC target", i)
			}
			if ev.PF < 0 || ev.PF >= len(tg.NIC.PFs()) {
				return fmt.Errorf("faults: event %d (queue-stall): NIC %s has no PF %d", i, tg.NIC.Name(), ev.PF)
			}
			if nq := len(tg.NIC.PF(ev.PF).RxQueues()); ev.Queue < 0 || ev.Queue >= nq {
				return fmt.Errorf("faults: event %d (queue-stall): PF %d has %d queue pairs, no queue %d",
					i, ev.PF, nq, ev.Queue)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (queue-stall): needs positive duration", i)
			}
		case PollerStall:
			found := false
			for _, pl := range tg.Pollers {
				if pl != nil && pl.Node() == ev.Node {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("faults: event %d (poller-stall): no busy-poll loop on node %d (the busypoll datapath runs one per node; interrupt and hybrid runs have none)",
					i, ev.Node)
			}
			if ev.Duration <= 0 {
				return fmt.Errorf("faults: event %d (poller-stall): needs positive duration", i)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return p.validateSchedule()
}

// dirState is one wire direction's active loss configuration, mutated
// by scheduled window starts/ends and read by the installed filter.
type dirState struct {
	inj         *Injector
	rng         *sim.RNG
	lossProb    float64
	corruptProb float64
	burst       bool
}

// filter implements eth.FaultFilter for one direction.
func (ds *dirState) filter(f *eth.Frame) bool {
	if ds.burst {
		ds.inj.burstDrops++
		return true
	}
	// Bernoulli(p<=0) returns false without consuming the stream, so a
	// direction between windows draws nothing and stays in lockstep
	// with a run whose windows fire at different times.
	if ds.rng.Bernoulli(ds.lossProb) {
		ds.inj.lossDrops++
		return true
	}
	if ds.rng.Bernoulli(ds.corruptProb) {
		ds.inj.corruptDrops++
		return true
	}
	return false
}

// Injector is an armed plan: the scheduled events plus the counters
// they bump as they fire.
type Injector struct {
	tg Targets

	c2s, s2c *dirState

	eventsFired     uint64
	linkTransitions uint64
	lossDrops       uint64
	burstDrops      uint64
	corruptDrops    uint64
	degrades        uint64
	stalls          uint64
	fwResets        uint64
	queueStalls     uint64
	pollerStalls    uint64
}

// Arm validates the plan and schedules every event on the engine,
// relative to now. Wire filters are installed only for directions the
// plan actually targets, so an unarmed direction keeps its nil filter
// (one pointer compare per frame, the no-fault fast path).
func Arm(plan *Plan, tg Targets) (*Injector, error) {
	if tg.Engine == nil {
		return nil, fmt.Errorf("faults: Arm needs an engine")
	}
	if err := plan.Validate(tg); err != nil {
		return nil, err
	}
	inj := &Injector{tg: tg}
	root := sim.NewRNG(plan.Seed)
	for i := range plan.Events {
		ev := plan.Events[i] // copy: the closure must not alias the slice
		switch ev.Kind {
		case LinkDown:
			tg.Engine.After(ev.At, func() { inj.setLink(ev.PF, false) })
		case LinkUp:
			tg.Engine.After(ev.At, func() { inj.setLink(ev.PF, true) })
		case LinkFlap:
			tg.Engine.After(ev.At, func() { inj.setLink(ev.PF, false) })
			tg.Engine.After(ev.At+ev.Duration, func() { inj.setLink(ev.PF, true) })
		case Loss:
			ds := inj.dir(ev.Dir, root)
			p := ev.Prob
			tg.Engine.After(ev.At, func() { inj.eventsFired++; ds.lossProb = p })
			tg.Engine.After(ev.At+ev.Duration, func() { ds.lossProb = 0 })
		case Corrupt:
			ds := inj.dir(ev.Dir, root)
			p := ev.Prob
			tg.Engine.After(ev.At, func() { inj.eventsFired++; ds.corruptProb = p })
			tg.Engine.After(ev.At+ev.Duration, func() { ds.corruptProb = 0 })
		case Burst:
			ds := inj.dir(ev.Dir, root)
			tg.Engine.After(ev.At, func() { inj.eventsFired++; ds.burst = true })
			tg.Engine.After(ev.At+ev.Duration, func() { ds.burst = false })
		case Degrade:
			tg.Engine.After(ev.At, func() {
				inj.eventsFired++
				inj.degrades++
				tg.Fabric.Degrade(ev.From, ev.To, ev.BWFactor, ev.LatFactor)
			})
			tg.Engine.After(ev.At+ev.Duration, func() {
				tg.Fabric.Degrade(ev.From, ev.To, 1, 1)
			})
		case Stall:
			tg.Engine.After(ev.At, func() {
				inj.eventsFired++
				inj.stalls++
				tg.Kernel.Core(ev.Core).Stall(ev.Duration)
			})
		case FirmwareReset:
			tg.Engine.After(ev.At, func() {
				inj.eventsFired++
				inj.fwResets++
				tg.NIC.ResetFirmware()
			})
		case QueueStall:
			tg.Engine.After(ev.At, func() {
				inj.eventsFired++
				inj.queueStalls++
				tg.NIC.SetQueueStall(ev.PF, ev.Queue, true)
			})
			tg.Engine.After(ev.At+ev.Duration, func() {
				tg.NIC.SetQueueStall(ev.PF, ev.Queue, false)
			})
		case PollerStall:
			tg.Engine.After(ev.At, func() {
				inj.eventsFired++
				inj.pollerStalls++
				for _, pl := range tg.Pollers {
					if pl != nil && pl.Node() == ev.Node {
						pl.Wedge(ev.Duration)
					}
				}
			})
		}
	}
	return inj, nil
}

// setLink flips a PF's link and counts the transition.
func (inj *Injector) setLink(pf int, up bool) {
	inj.eventsFired++
	inj.linkTransitions++
	inj.tg.NIC.SetPFLink(pf, up)
}

// dir lazily creates a direction's loss state and installs its wire
// filter; the RNG fork id is the direction, so the two streams are
// decorrelated but each is a pure function of the plan seed.
func (inj *Injector) dir(d Dir, root *sim.RNG) *dirState {
	switch d {
	case ClientToServer:
		if inj.c2s == nil {
			inj.c2s = &dirState{inj: inj, rng: root.Fork(1)}
			inj.tg.Wire.SetFaultFilter(inj.tg.ClientPort, inj.c2s.filter)
		}
		return inj.c2s
	default:
		if inj.s2c == nil {
			inj.s2c = &dirState{inj: inj, rng: root.Fork(2)}
			inj.tg.Wire.SetFaultFilter(inj.tg.ServerPort, inj.s2c.filter)
		}
		return inj.s2c
	}
}
