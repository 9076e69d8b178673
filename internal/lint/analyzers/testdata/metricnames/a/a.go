// Fixture for the metricnames analyzer: registration sites on the
// internal/metrics registrar surface.
package fixture

import (
	"fmt"

	"ioctopus/internal/metrics"
)

func probe() float64 { return 0 }

const frames = "rx/frames"

func registrations(r *metrics.Registry, dyn string, pf int) {
	r.Counter("rx/frames", probe)
	r.Gauge(frames+"_total", probe) // constant expression: fine
	r.Gauge("rx/bytes_total", probe)
	r.Counter(dyn, probe)         // want `metric Counter name must be a constant string`
	r.Counter("Rx/Frames", probe) // want `metric name "Rx/Frames" must be lowercase`
	r.Counter("rx frames", probe) // want `metric name "rx frames" must be lowercase`

	r.Gauge(fmt.Sprintf("pf%d/util", pf), probe) // constant format: fine
	r.Gauge(fmt.Sprintf(dyn, pf), probe)         // want `metric Gauge name must be a constant string`
	r.Gauge(fmt.Sprintf("PF%d/util", pf), probe) // want `must be lowercase`

	s := r.Scope(fmt.Sprintf("core%d", pf))
	s.Counter("cycles", probe)
	r.Scope("PF0") // want `metric name "PF0" must be lowercase`
}
