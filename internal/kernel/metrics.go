package kernel

import (
	"fmt"

	"ioctopus/internal/metrics"
)

// RegisterMetrics wires per-core execution telemetry into a registry
// under "core<i>": accumulated busy time and run-queue depth. Busy time
// only grows, but it stays a gauge: the JSON report's goldens pin each
// metric's kind.
func (k *Kernel) RegisterMetrics(r metrics.Registrar) {
	for _, c := range k.cores {
		c := c
		sc := r.Scope(fmt.Sprintf("core%d", c.id))
		sc.Gauge("busy_seconds", func() float64 { return c.BusyTime().Seconds() })
		sc.Gauge("queue_depth", func() float64 { return float64(c.queue.Len()) })
	}
}
