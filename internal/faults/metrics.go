package faults

import "ioctopus/internal/metrics"

// RegisterMetrics exports the injector's counters: how many scheduled
// faults have fired and what they cost the wire. Recovery-side counts
// (failovers, retransmissions) live with the subsystems that perform
// them — the injector only knows what it broke.
func (inj *Injector) RegisterMetrics(r metrics.Registrar) {
	r.Counter("events_fired", func() float64 { return float64(inj.eventsFired) })
	r.Counter("link_transitions", func() float64 { return float64(inj.linkTransitions) })
	r.Counter("loss_drops", func() float64 { return float64(inj.lossDrops) })
	r.Counter("burst_drops", func() float64 { return float64(inj.burstDrops) })
	r.Counter("corrupt_drops", func() float64 { return float64(inj.corruptDrops) })
	r.Counter("degrades", func() float64 { return float64(inj.degrades) })
	r.Counter("stalls", func() float64 { return float64(inj.stalls) })
	r.Counter("fw_resets", func() float64 { return float64(inj.fwResets) })
	r.Counter("queue_stalls", func() float64 { return float64(inj.queueStalls) })
	r.Counter("poller_stalls", func() float64 { return float64(inj.pollerStalls) })
}
