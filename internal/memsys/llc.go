package memsys

import (
	"math"
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// llc models one socket's last-level cache as two LRU partitions: the
// main ways and the DDIO ways DMA writes are confined to. Occupancy is
// tracked per buffer; antagonist workloads apply pressure that shrinks
// the effective capacity instead of being simulated line by line.
type llc struct {
	spec    topology.LLCSpec
	ddioCap int64
	// pollutionBps is the aggregate antagonist allocation rate through
	// this LLC (bytes/sec): it sets how fast idle resident lines are
	// evicted and how much effective capacity shrinks.
	pollutionBps float64

	main lruList
	ddio lruList
}

func newLLC(spec topology.LLCSpec) *llc {
	return &llc{
		spec:    spec,
		ddioCap: int64(float64(spec.Size) * spec.DDIOFraction),
	}
}

// survivingFraction is the probability a line last touched idle ago is
// still resident: antagonists streaming at pollutionBps turn the cache
// over once every Size/pollutionBps seconds, so survival decays
// exponentially with idle time. Hot lines (reused within microseconds)
// survive; a buffer parked for a pool-recycle period does not.
func (l *llc) survivingFraction(idle time.Duration) float64 {
	if l.pollutionBps <= 0 || idle <= 0 {
		return 1
	}
	turnover := float64(l.spec.Size) / l.pollutionBps // seconds per full sweep
	f := math.Exp(-idle.Seconds() / turnover)
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// pressureFactor shrinks effective capacity under pollution (the
// antagonist working set occupies its share of the ways, at most 85%).
func (l *llc) pressureFactor() float64 {
	return 1 - math.Min(0.85, l.pollutionBps/150e9)
}

// effMain returns the usable main-partition capacity under pressure.
func (l *llc) effMain() int64 {
	return int64(float64(l.spec.Size-l.ddioCap) * l.pressureFactor())
}

// effDDIO returns the usable DDIO-partition capacity under pressure.
func (l *llc) effDDIO() int64 {
	return int64(float64(l.ddioCap) * l.pressureFactor())
}

func (l *llc) list(ddio bool) *lruList {
	if ddio {
		return &l.ddio
	}
	return &l.main
}

// remove detaches the buffer from its partition and clears residency.
func (l *llc) remove(b *Buffer) {
	l.list(b.ddio).remove(b)
	b.node = topology.NoNode
	b.cached = 0
	b.dirty = false
	b.ddio = false
}

// insert grows buffer b's residency at node n by `grow` new bytes in the
// chosen partition, evicting LRU victims as needed, and returns how many
// bytes were actually accommodated. The shortfall (spill) is the
// caller's to charge to DRAM. The buffer must not be resident in a
// different LLC when called (the caller migrates/invalidates first).
func (l *llc) insert(s *System, n topology.NodeID, b *Buffer, grow int64, ddio bool, now sim.Time) int64 {
	if b.node != topology.NoNode && b.node != n {
		panic("memsys: insert of buffer resident in another LLC")
	}
	// Attach or switch partitions.
	switch {
	case b.node == topology.NoNode:
		b.node = n
		b.ddio = ddio
		b.cached = 0
		l.list(ddio).pushFront(b)
	case b.ddio != ddio:
		// Promote/demote between partitions, carrying occupancy
		// (lruList.remove releases it; re-add below).
		l.list(b.ddio).remove(b)
		b.ddio = ddio
		l.list(ddio).pushFront(b)
		l.list(ddio).used += b.cached
	default:
		l.list(ddio).moveToFront(b)
	}
	b.lastTouch = now

	part := l.list(ddio)
	capBytes := l.effMain()
	if ddio {
		capBytes = l.effDDIO()
	}
	// Cap a single buffer's footprint so one streaming buffer cannot
	// displace the whole partition.
	maxPerBuffer := int64(float64(capBytes) * bigBufferFraction)
	if maxPerBuffer < 4096 {
		maxPerBuffer = 4096
	}
	if b.cached+grow > maxPerBuffer {
		grow = maxPerBuffer - b.cached
	}
	if b.cached+grow > b.size {
		grow = b.size - b.cached
	}
	if grow <= 0 {
		return 0
	}

	// Evict from the back until the growth fits.
	for part.used+grow > capBytes {
		victim := part.back()
		if victim == nil || victim == b {
			room := capBytes - part.used
			if room < 0 {
				room = 0
			}
			if grow > room {
				grow = room
			}
			break
		}
		if victim.dirty {
			s.evictionWriteback(n, victim)
		}
		part.remove(victim)
		victim.node = topology.NoNode
		victim.cached = 0
		victim.dirty = false
		victim.ddio = false
	}
	b.cached += grow
	part.used += grow
	return grow
}

// touch refreshes LRU position.
func (l *llc) touch(b *Buffer, now sim.Time) {
	l.list(b.ddio).moveToFront(b)
	b.lastTouch = now
}

// lruList is an intrusive doubly-linked LRU of buffers; most recent at
// the front. used tracks resident bytes.
type lruList struct {
	head, tail *Buffer
	used       int64
}

func (l *lruList) pushFront(b *Buffer) {
	b.prev = nil
	b.next = l.head
	if l.head != nil {
		l.head.prev = b
	}
	l.head = b
	if l.tail == nil {
		l.tail = b
	}
}

// remove detaches b and releases its occupancy.
func (l *lruList) remove(b *Buffer) {
	if b.prev != nil {
		b.prev.next = b.next
	} else if l.head == b {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if l.tail == b {
		l.tail = b.prev
	}
	l.used -= b.cached
	if l.used < 0 {
		l.used = 0
	}
	b.prev, b.next = nil, nil
}

func (l *lruList) moveToFront(b *Buffer) {
	if l.head == b {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else if l.tail == b {
		l.tail = b.prev
	}
	b.prev = nil
	b.next = l.head
	if l.head != nil {
		l.head.prev = b
	}
	l.head = b
	if l.tail == nil {
		l.tail = b
	}
}

func (l *lruList) back() *Buffer { return l.tail }
