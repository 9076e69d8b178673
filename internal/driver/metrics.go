package driver

import (
	"ioctopus/internal/metrics"
)

// RegisterMetrics wires the driver-side view of the datapath into a
// registry: aggregate ring occupancy across the driver's queue pairs,
// plus the poll-mode, watchdog and firmware-recovery scopes where they
// are enabled. (Per-queue hardware counters live under the NIC's own
// scope.)
func (b *base) RegisterMetrics(r metrics.Registrar) {
	r.Gauge("rx_pending", func() float64 {
		var s int
		for _, qp := range b.pairs {
			s += qp.rx.Pending()
		}
		return float64(s)
	})
	r.Gauge("tx_in_flight", func() float64 {
		var s int
		for _, qp := range b.pairs {
			s += qp.tx.InFlight()
		}
		return float64(s)
	})
	if b.pmd != nil {
		// Poll-mode counters (busypoll and hybrid datapaths only, so the
		// interrupt path's registry snapshot is unchanged).
		pm := r.Scope("pmd")
		pm.Counter("polls", func() float64 {
			polls, _ := b.pmd.counts()
			return float64(polls)
		})
		pm.Counter("empty_polls", func() float64 {
			_, empty := b.pmd.counts()
			return float64(empty)
		})
		pm.Counter("bursts", func() float64 { return float64(b.pmd.bursts) })
		pm.Gauge("burst_occupancy", func() float64 {
			if b.pmd.bursts == 0 {
				return 0
			}
			return float64(b.pmd.burstPkts) / float64(b.pmd.bursts)
		})
	}
	if b.wd != nil {
		// Self-healing counters (watchdog-enabled runs only, same gating
		// rule as pmd/: the default registry snapshot is unchanged).
		wd := r.Scope("watchdog")
		wd.Counter("ticks", func() float64 { return float64(b.wd.stats.Ticks) })
		wd.Counter("queue_resets", func() float64 { return float64(b.wd.stats.QueueResets) })
		wd.Counter("fw_reprograms", func() float64 { return float64(b.wd.stats.FwReprograms) })
		wd.Counter("pf_dead", func() float64 { return float64(b.wd.stats.PFDead) })
		wd.Counter("pf_recovered", func() float64 { return float64(b.wd.stats.PFRecovered) })
		wd.Counter("poller_fallbacks", func() float64 { return float64(b.wd.stats.PollerFallbacks) })
		wd.Counter("poller_reenters", func() float64 { return float64(b.wd.stats.PollerReenters) })
		// Firmware-recovery counters ride the watchdog gate: both exist
		// only on self-healing-enabled runs.
		fr := r.Scope("fw/recovery")
		fr.Counter("resets", func() float64 { return float64(b.fwResets) })
		fr.Counter("rules_replayed", func() float64 { return float64(b.rulesReplayed) })
	}
}

// RegisterMetrics adds the octoNIC steering machinery on top of the
// shared ring gauges: IOctoRFS update-worker counters and rule-table
// occupancy under "steer".
func (d *Octo) RegisterMetrics(r metrics.Registrar) {
	d.base.RegisterMetrics(r)
	sc := r.Scope("steer")
	sc.Counter("updates_pushed", func() float64 { return float64(d.updatesPushed) })
	sc.Counter("updates_applied", func() float64 { return float64(d.updatesApplied) })
	sc.Counter("rules_expired", func() float64 { return float64(d.rulesExpired) })
	sc.Gauge("rule_count", func() float64 { return float64(len(d.rules)) })
	fo := r.Scope("failover")
	fo.Counter("failovers", func() float64 { return float64(d.failovers) })
	fo.Counter("failbacks", func() float64 { return float64(d.failbacks) })
	fo.Counter("reposted", func() float64 { return float64(d.reposted) })
	fo.Counter("rules_resteered", func() float64 { return float64(d.rulesResteered) })
	fo.Counter("parked_overflow", func() float64 { return float64(d.parkedOverflow) })
	fo.Counter("concurrent_ignored", func() float64 { return float64(d.concurrentIgnored) })
	fo.Gauge("degraded", func() float64 {
		if d.downPF >= 0 {
			return 1
		}
		return 0
	})
}
