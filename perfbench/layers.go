package main

import (
	"strings"

	"ioctopus"
)

// layerCounts accumulates the simulated per-layer counts of one or more
// clusters, read at the end of each cluster's run from its metrics
// registry, its server PCIe endpoints and its wire. Counts are the
// server host's, where the NUDMA effects live; the client host is the
// load generator. Ratios are derived from the summed parts in into.
type layerCounts map[string]float64

// add folds one finished cluster into the counts.
func (c *layerCounts) add(tr *tracer, parent int, cl *ioctopus.Cluster) {
	if *c == nil {
		*c = layerCounts{}
	}
	r := *c
	id := tr.begin("Registry.Snapshot", parent)
	snap := cl.Reg.Snapshot()
	tr.end(id)
	// sum adds every sample whose name starts with prefix and ends with
	// suffix.
	sum := func(prefix, suffix string) float64 {
		var s float64
		for _, m := range snap {
			if len(m.Name) >= len(prefix)+len(suffix) && strings.HasPrefix(m.Name, prefix) && strings.HasSuffix(m.Name, suffix) {
				s += m.Value
			}
		}
		return s
	}
	r["sim.events"] += sum("engine/events_executed", "")
	r["metrics.count"] += float64(len(snap))

	r["nic.rx_packets"] += sum("server/nic/rx_packets", "")
	r["nic.tx_sent"] += sum("server/nic/pf", "/tx/sent")
	r["nic.interrupts"] += sum("server/nic/pf", "/rx/interrupts") + sum("server/nic/pf", "/tx/interrupts")
	r["nic.rx_drops"] += sum("server/nic/rx_drops", "") + sum("server/nic/pf", "/rx/drops")
	r["pool.hits"] += sum("server/nic/pool/", "/hits")
	r["pool.misses"] += sum("server/nic/pool/", "/misses")
	r["eth.frames"] += float64(cl.Wire.Pipe(cl.Server.NIC).DiscreteOps() + cl.Wire.Pipe(cl.Client.NIC).DiscreteOps())
	for _, ep := range cl.Server.PCIe.Endpoints() {
		r["pcie.dma_write_bytes"] += ep.DMAWriteBytes()
		r["pcie.dma_read_bytes"] += ep.DMAReadBytes()
		r["pcie.mmio_ops"] += float64(ep.MMIOOps())
		r["pcie.interrupts"] += float64(ep.Interrupts())
	}

	r["memsys.llc_hit_bytes"] += sum("server/mem/node", "/llc_hit_bytes")
	r["memsys.llc_miss_bytes"] += sum("server/mem/node", "/llc_miss_bytes")
	r["interconnect.bytes"] += cl.Server.Fabric.TotalBytes()
	for _, m := range snap {
		if link, ok := strings.CutSuffix(m.Name, "/mean_latency_seconds"); ok && strings.HasPrefix(link, "server/fabric/") {
			ops, _ := cl.Reg.Value(link + "/discrete_ops")
			r["link.ops"] += ops
			r["link.latency_s"] += ops * m.Value
		}
	}

	r["kernel.busy_s"] += sum("server/kernel/core", "/busy_seconds")
	r["driver.polls"] += sum("server/driver/", "/pmd/polls")
	r["driver.empty_polls"] += sum("server/driver/", "/pmd/empty_polls")
	for _, m := range snap {
		if drv, ok := strings.CutSuffix(m.Name, "/pmd/burst_occupancy"); ok && strings.HasPrefix(drv, "server/driver/") {
			bursts, _ := cl.Reg.Value(drv + "/pmd/bursts")
			r["driver.bursts"] += bursts
			r["driver.burst_packets"] += bursts * m.Value
		}
	}

	r["netstack.rx_segments"] += sum("server/stack/rx_segments", "")
	r["netstack.retransmits"] += sum("", "/stack/retx/retransmits")
	r["netstack.duplicates"] += sum("", "/stack/retx/duplicates")
	r["faults.link_transitions"] += sum("faults/link_transitions", "")
	r["faults.wire_drops"] += sum("faults/", "_drops")
	r["driver.failovers"] += sum("server/driver/", "/failover/failovers")
	r["driver.failbacks"] += sum("server/driver/", "/failover/failbacks")
}

// parts are the sums into turns into ratios instead of reporting.
var parts = map[string]bool{
	"pool.hits": true, "pool.misses": true,
	"link.ops": true, "link.latency_s": true,
	"driver.bursts": true, "driver.burst_packets": true,
}

// into writes the per-layer metrics into m.
func (c layerCounts) into(m map[string]float64) {
	for k, v := range c {
		if !parts[k] {
			m[k] = v
		}
	}
	m["nic.pool_hit_ratio"] = ratio(c["pool.hits"], c["pool.hits"]+c["pool.misses"])
	m["memsys.llc_hit_ratio"] = ratio(c["memsys.llc_hit_bytes"], c["memsys.llc_hit_bytes"]+c["memsys.llc_miss_bytes"])
	m["interconnect.mean_latency_ns"] = ratio(c["link.latency_s"], c["link.ops"]) * 1e9
	m["driver.useful_poll_ratio"] = ratio(c["driver.polls"]-c["driver.empty_polls"], c["driver.polls"])
	m["driver.burst_occupancy"] = ratio(c["driver.burst_packets"], c["driver.bursts"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
