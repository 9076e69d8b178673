package netstack

import (
	"ioctopus/internal/metrics"
)

// RegisterMetrics wires stack-level datapath counters into a registry:
// segment delivery/drop totals plus the retransmission machinery under
// "retx" (all zero unless Params.RetxTimeout armed the timer).
func (st *Stack) RegisterMetrics(r metrics.Registrar) {
	r.Counter("rx_segments", func() float64 { return float64(st.rxSegments) })
	r.Counter("rx_drops", func() float64 { return float64(st.rxDrops) })
	retx := r.Scope("retx")
	retx.Counter("timeouts", func() float64 { return float64(st.retxTimeouts) })
	retx.Counter("retransmits", func() float64 { return float64(st.retxRetransmits) })
	retx.Counter("duplicates", func() float64 { return float64(st.retxDuplicates) })
	retx.Counter("abandoned", func() float64 { return float64(st.retxAbandoned) })
}
