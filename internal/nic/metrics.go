package nic

import (
	"fmt"

	"ioctopus/internal/metrics"
	"ioctopus/internal/sim"
)

// RegisterMetrics wires the device into an observability registry:
// port-level frame counters, the active firmware's steering-table
// occupancy, and per-PF datapath counters (nested under "pf<i>").
func (n *NIC) RegisterMetrics(r metrics.Registrar) {
	r.Counter("rx_frames", func() float64 { return float64(n.rxFrames) })
	r.Counter("rx_packets", func() float64 { return float64(n.rxPackets) })
	r.Counter("rx_drops", func() float64 { return float64(n.rxDrops) })
	// The firmware can be reflashed mid-run; probe through the field.
	r.Gauge("flow_rules", func() float64 {
		if n.fw == nil {
			return 0
		}
		return float64(n.fw.FlowCount())
	})
	registerPool(r.Scope("pool/rx"), n.rxPool)
	registerPool(r.Scope("pool/tx"), n.txPool)
	registerPool(r.Scope("pool/frame"), n.frames)
	for _, pf := range n.pfs {
		pf.RegisterMetrics(r.Scope(fmt.Sprintf("pf%d", pf.index)))
	}
}

// registerPool wires one packet pool's counters/gauges: pool/<kind>/
// {hits,misses,recycled} counters plus the live-lease gauge.
func registerPool[T any](r metrics.Registrar, p *sim.Pool[T]) {
	r.Counter("hits", func() float64 { return float64(p.Stats().Hits) })
	r.Counter("misses", func() float64 { return float64(p.Stats().Misses) })
	r.Counter("recycled", func() float64 { return float64(p.Stats().Recycled) })
	r.Gauge("live", func() float64 { return float64(p.Stats().Live) })
}

// RegisterMetrics registers one PF's byte counters plus its queue-set
// aggregates ("rx" and "tx" scopes). Queue counters are summed across
// the PF's queues at probe time, so queues added after registration are
// still observed.
func (p *PF) RegisterMetrics(r metrics.Registrar) {
	r.Counter("rx_bytes", func() float64 { return p.rxBytes })
	r.Counter("tx_bytes", func() float64 { return p.txBytes })
	r.Gauge("link_up", func() float64 {
		if p.linkUp {
			return 1
		}
		return 0
	})
	r.Counter("rx_link_drops", func() float64 { return float64(p.rxLinkDrops) })
	r.Counter("tx_link_drops", func() float64 { return float64(p.txLinkDrops) })

	rx := r.Scope("rx")
	rx.Gauge("queues", func() float64 { return float64(len(p.rxQueues)) })
	rx.Counter("delivered", func() float64 {
		var s uint64
		for _, q := range p.rxQueues {
			s += q.delivered
		}
		return float64(s)
	})
	rx.Counter("drops", func() float64 {
		var s uint64
		for _, q := range p.rxQueues {
			s += q.drops
		}
		return float64(s)
	})
	rx.Counter("interrupts", func() float64 {
		var s uint64
		for _, q := range p.rxQueues {
			s += q.Interrupts()
		}
		return float64(s)
	})
	rx.Gauge("pending", func() float64 {
		var s int
		for _, q := range p.rxQueues {
			s += q.Pending()
		}
		return float64(s)
	})

	tx := r.Scope("tx")
	tx.Gauge("queues", func() float64 { return float64(len(p.txQueues)) })
	tx.Counter("posted", func() float64 {
		var s uint64
		for _, q := range p.txQueues {
			s += q.posted
		}
		return float64(s)
	})
	tx.Counter("sent", func() float64 {
		var s uint64
		for _, q := range p.txQueues {
			s += q.sent
		}
		return float64(s)
	})
	tx.Counter("interrupts", func() float64 {
		var s uint64
		for _, q := range p.txQueues {
			s += q.Interrupts()
		}
		return float64(s)
	})
	tx.Gauge("in_flight", func() float64 {
		var s int
		for _, q := range p.txQueues {
			s += q.InFlight()
		}
		return float64(s)
	})
}
