package sim

import (
	"fmt"
	"math"
	"time"
)

// Pipe models a bandwidth-limited channel: a QPI/UPI link direction, a
// PCIe link, a memory controller, or an Ethernet wire. It carries two
// kinds of traffic:
//
//   - Discrete transfers (Transfer): individual DMA/packet moves that are
//     serialized FIFO at the pipe's available bandwidth and experience the
//     pipe's base latency inflated by utilization (a 1/(1-rho) queueing
//     approximation, capped).
//
//   - Fluid flows (AddFlow): long-running bulk traffic such as STREAM or
//     PageRank memory scans. Modelling these per-cacheline would need
//     millions of events; instead each flow declares a demand in bytes/sec
//     and the pipe allocates capacity by water-filling. Fluid load reduces
//     the bandwidth available to discrete transfers and inflates their
//     latency, which is exactly the contention effect Figures 11, 12 and
//     15 of the paper measure.
//
// The split is a deliberate hybrid: packet-level fidelity where the paper
// reasons per-packet, fluid approximation where it reasons in GB/s.
type Pipe struct {
	eng  *Engine
	name string

	capacity     float64 // bytes/sec (current, possibly degraded)
	baseLatency  time.Duration
	maxInflation float64
	minShare     float64

	// Healthy-state values, recorded at construction so fault injection
	// can degrade the pipe mid-run and restore it exactly.
	healthyCapacity float64
	healthyLatency  time.Duration

	// Discrete traffic: FIFO serialization and a leaky-bucket rate
	// estimate (exponential kernel) used to size the fluid share.
	nextFree   Time
	discRate   float64 // bytes/sec, decayed estimate
	discRateAt Time
	tau        float64 // estimator time constant, seconds

	// Fluid traffic.
	flows     []*FluidFlow
	fluidAt   Time // last time fluid byte counters were integrated
	fluidRate float64

	// Stats.
	discreteBytes  float64
	discreteOps    uint64
	fluidBytes     float64
	latencySamples uint64
	latencySum     time.Duration
}

// PipeConfig configures a Pipe.
type PipeConfig struct {
	Name         string
	BytesPerSec  float64       // capacity
	BaseLatency  time.Duration // propagation + serialization floor
	MaxInflation float64       // cap on queueing-delay multiplier (default 20)
	EstimatorTau time.Duration // discrete rate estimator constant (default 200us)
	// MinDiscreteShare guarantees discrete traffic this fraction of
	// capacity regardless of fluid load (default 0.05). Fabrics whose
	// hardware arbitrates for DMA bursts (QPI/UPI home agents) use a
	// larger share.
	MinDiscreteShare float64
}

// NewPipe constructs a pipe.
func NewPipe(e *Engine, cfg PipeConfig) *Pipe {
	if cfg.BytesPerSec <= 0 {
		panic(fmt.Sprintf("sim: pipe %q needs positive capacity", cfg.Name))
	}
	if cfg.MaxInflation <= 1 {
		cfg.MaxInflation = 20
	}
	if cfg.EstimatorTau <= 0 {
		cfg.EstimatorTau = 200 * Microsecond
	}
	if cfg.MinDiscreteShare <= 0 {
		cfg.MinDiscreteShare = 0.05
	}
	return &Pipe{
		eng:             e,
		name:            cfg.Name,
		capacity:        cfg.BytesPerSec,
		baseLatency:     cfg.BaseLatency,
		healthyCapacity: cfg.BytesPerSec,
		healthyLatency:  cfg.BaseLatency,
		maxInflation:    cfg.MaxInflation,
		minShare:        cfg.MinDiscreteShare,
		tau:             cfg.EstimatorTau.Seconds(),
	}
}

// SetDegradation scales the pipe's capacity and base latency relative to
// its healthy (construction-time) values: bwFactor multiplies capacity,
// latFactor multiplies base latency. SetDegradation(1, 1) restores the
// pipe exactly. Fluid flows are integrated at the old rates first, then
// re-water-filled at the new capacity, so a mid-run degradation is
// accounted from the instant it fires. Pending discrete transfers keep
// their already-scheduled completion times (bits in flight stay in
// flight); new transfers see the degraded pipe.
func (pp *Pipe) SetDegradation(bwFactor, latFactor float64) {
	if bwFactor <= 0 {
		panic(fmt.Sprintf("sim: pipe %q bandwidth factor must be positive", pp.name))
	}
	if latFactor <= 0 {
		panic(fmt.Sprintf("sim: pipe %q latency factor must be positive", pp.name))
	}
	pp.integrateFluid()
	pp.capacity = pp.healthyCapacity * bwFactor
	pp.baseLatency = time.Duration(float64(pp.healthyLatency) * latFactor)
	if pp.discRate > pp.capacity {
		pp.discRate = pp.capacity
	}
	pp.reallocate()
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// Capacity returns the configured capacity in bytes/sec.
func (pp *Pipe) Capacity() float64 { return pp.capacity }

// decayDiscRate brings the discrete-rate estimate forward to now.
func (pp *Pipe) decayDiscRate(now Time) {
	dt := now.Sub(pp.discRateAt).Seconds()
	if dt > 0 {
		pp.discRate *= math.Exp(-dt / pp.tau)
		pp.discRateAt = now
	}
}

// bumpDiscRate accounts bytes into the rate estimate at now.
func (pp *Pipe) bumpDiscRate(now Time, bytes float64) {
	pp.decayDiscRate(now)
	pp.discRate += bytes / pp.tau
	if pp.discRate > pp.capacity {
		pp.discRate = pp.capacity
	}
}

// DiscreteRate returns the current discrete-traffic rate estimate
// (bytes/sec).
func (pp *Pipe) DiscreteRate() float64 {
	pp.decayDiscRate(pp.eng.Now())
	return pp.discRate
}

// Utilization returns the fraction of capacity in use (0..1), combining
// fluid allocations and the discrete rate estimate.
func (pp *Pipe) Utilization() float64 {
	pp.integrateFluid()
	u := (pp.fluidRate + pp.DiscreteRate()) / pp.capacity
	if u > 1 {
		u = 1
	}
	return u
}

// Inflation returns the current latency multiplier for discrete transfers.
func (pp *Pipe) Inflation() float64 {
	rho := pp.Utilization()
	const rhoCap = 0.97
	if rho > rhoCap {
		rho = rhoCap
	}
	inf := 1 / (1 - rho)
	if inf > pp.maxInflation {
		inf = pp.maxInflation
	}
	return inf
}

// available returns bandwidth usable by discrete transfers right now:
// whatever fluid flows are not consuming, floored at the pipe's
// guaranteed discrete share.
func (pp *Pipe) available() float64 {
	pp.integrateFluid()
	avail := pp.capacity - pp.fluidRate
	if floor := pp.capacity * pp.minShare; avail < floor {
		avail = floor
	}
	return avail
}

// Available returns the bandwidth currently usable by discrete traffic
// (capacity minus fluid allocations, floored at the guaranteed share).
func (pp *Pipe) Available() float64 { return pp.available() }

// Latency returns the one-way latency a discrete transfer of the given
// size would experience now, without enqueuing anything (for modelling
// read round trips priced elsewhere).
func (pp *Pipe) Latency(bytes int64) time.Duration {
	ser := time.Duration(float64(bytes) / pp.available() * 1e9)
	return time.Duration(float64(pp.baseLatency)*pp.Inflation()) + ser
}

// Transfer enqueues a discrete transfer of the given size and schedules
// done when the last byte has arrived. It returns the completion time.
// done may be nil when only the timing side effects matter.
func (pp *Pipe) Transfer(bytes int64, done func()) Time {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative transfer on pipe %q", pp.name))
	}
	now := pp.eng.Now()
	rate := pp.available()
	ser := time.Duration(float64(bytes) / rate * 1e9)
	lat := time.Duration(float64(pp.baseLatency) * pp.Inflation())

	start := now
	if pp.nextFree > start {
		start = pp.nextFree
	}
	pp.nextFree = start.Add(ser)
	finish := pp.nextFree.Add(lat)

	pp.bumpDiscRate(now, float64(bytes))
	pp.discreteBytes += float64(bytes)
	pp.discreteOps++
	pp.latencySamples++
	pp.latencySum += finish.Sub(now)
	pp.eng.traceTransfer(pp.name, bytes)

	if done != nil {
		pp.eng.At(finish, done)
	} else {
		// Fire-and-forget: nothing to call back, so keep the event heap
		// out of it and only extend the engine's quiescence horizon.
		pp.eng.stretchIdle(finish)
	}
	return finish
}

// Charge accounts bytes of discrete traffic against the pipe — feeding
// the rate estimator, utilization and byte counters — without occupying
// the FIFO. Use it for resources that serve many initiators concurrently
// (memory controllers, coherence fabrics) where contention should appear
// as latency inflation rather than strict serialization; price the access
// separately with Latency. Like Transfer, it water-fills the fluid flows
// at the estimate from before its bytes, so which of the two carried
// them does not change the fluid shares.
func (pp *Pipe) Charge(bytes int64) {
	if bytes <= 0 {
		return
	}
	pp.integrateFluid()
	now := pp.eng.Now()
	pp.bumpDiscRate(now, float64(bytes))
	pp.discreteBytes += float64(bytes)
	pp.discreteOps++
}

// DiscreteBytes returns the total bytes moved by discrete transfers.
func (pp *Pipe) DiscreteBytes() float64 { return pp.discreteBytes }

// DiscreteOps returns the number of discrete transfers performed.
func (pp *Pipe) DiscreteOps() uint64 { return pp.discreteOps }

// MeanLatency returns the mean completion latency of discrete transfers.
func (pp *Pipe) MeanLatency() time.Duration {
	if pp.latencySamples == 0 {
		return 0
	}
	return pp.latencySum / time.Duration(pp.latencySamples)
}

// FluidFlow is a long-running bulk flow through a pipe. Its achieved rate
// is the water-filled share of the pipe's fluid capacity.
type FluidFlow struct {
	pipe   *Pipe
	name   string
	demand float64 // bytes/sec requested; math.Inf(1) = elastic
	alloc  float64 // bytes/sec granted
	bytes  float64 // integrated
	closed bool
	sat    bool // out of the water-fill rounds (reallocate's scratch)
}

// AddFlow registers a fluid flow with the given demand in bytes/sec.
// Use math.Inf(1) for an elastic flow that takes any spare bandwidth.
func (pp *Pipe) AddFlow(name string, demand float64) *FluidFlow {
	pp.integrateFluid()
	f := &FluidFlow{pipe: pp, name: name, demand: demand}
	pp.flows = append(pp.flows, f)
	pp.reallocate()
	pp.eng.traceFlow(pp.name, name, demand)
	return f
}

// RemoveFlow deregisters the flow; its byte counter stops advancing.
func (pp *Pipe) RemoveFlow(f *FluidFlow) {
	pp.integrateFluid()
	for i, g := range pp.flows {
		if g == f {
			pp.flows = append(pp.flows[:i], pp.flows[i+1:]...)
			break
		}
	}
	f.closed = true
	f.alloc = 0
	pp.reallocate()
}

// Remove deregisters the flow from its pipe (shorthand for
// Pipe.RemoveFlow when the caller no longer holds the pipe).
func (f *FluidFlow) Remove() {
	if !f.closed {
		f.pipe.RemoveFlow(f)
	}
}

// Rate returns the flow's currently granted rate in bytes/sec.
func (f *FluidFlow) Rate() float64 {
	f.pipe.integrateFluid()
	return f.alloc
}

// Bytes returns the bytes the flow has moved so far.
func (f *FluidFlow) Bytes() float64 {
	f.pipe.integrateFluid()
	return f.bytes
}

// Demand returns the flow's demand.
func (f *FluidFlow) Demand() float64 { return f.demand }

// Name returns the flow's name.
func (f *FluidFlow) Name() string { return f.name }

// integrateFluid advances each flow's byte counter to now at its current
// allocation, and refreshes allocations (the discrete-rate estimate that
// feeds them decays over time).
func (pp *Pipe) integrateFluid() {
	now := pp.eng.Now()
	if now == pp.fluidAt {
		return
	}
	dt := now.Sub(pp.fluidAt).Seconds()
	pp.fluidAt = now
	for _, f := range pp.flows {
		f.bytes += f.alloc * dt
		pp.fluidBytes += f.alloc * dt
	}
	pp.reallocate()
}

// reallocate water-fills the fluid capacity among flows. Flows with
// finite demand are capped at it; elastic flows split the remainder.
// Discrete traffic's protected allocation is capped at the pipe's
// guaranteed share: light DMA load leaves everything to fluid flows,
// but a DMA stream cannot hold more than its share against saturating
// fluid demand (how QPI/UPI arbitration behaves under STREAM, §5.4).
func (pp *Pipe) reallocate() {
	protected := pp.DiscreteRate()
	if lim := pp.capacity * pp.minShare; protected > lim {
		protected = lim
	}
	capf := pp.capacity - protected
	if capf < 0 {
		capf = 0
	}
	// Water-fill the finite-demand flows first, fairly: repeatedly grant
	// min(demand, equal share) to unsatisfied flows, visited in flow
	// order, each round's share set by the count at its start. The
	// fill runs in place (sat marks the flows out of the rounds), so
	// it allocates nothing.
	remaining := capf
	unsat, elastic := 0, 0
	for _, f := range pp.flows {
		f.alloc = 0
		f.sat = true
		if math.IsInf(f.demand, 1) {
			elastic++
		} else if f.demand > 0 {
			f.sat = false
			unsat++
		}
	}
	for unsat > 0 && remaining > 1e-9 {
		share := remaining / float64(unsat+elastic)
		progressed := false
		for _, f := range pp.flows {
			if f.sat {
				continue
			}
			want := f.demand - f.alloc
			grant := math.Min(want, share)
			f.alloc += grant
			remaining -= grant
			if f.alloc < f.demand-1e-9 {
				continue
			}
			f.sat = true
			unsat--
			progressed = true
		}
		if !progressed {
			// Everyone is share-limited: grants are final this round.
			break
		}
	}
	if elastic > 0 && remaining > 0 {
		share := remaining / float64(elastic)
		for _, f := range pp.flows {
			if math.IsInf(f.demand, 1) {
				f.alloc = share
			}
		}
	}
	pp.fluidRate = 0
	for _, f := range pp.flows {
		pp.fluidRate += f.alloc
	}
}

// FluidRate returns the total granted fluid rate in bytes/sec.
func (pp *Pipe) FluidRate() float64 {
	pp.integrateFluid()
	return pp.fluidRate
}

// FluidBytes returns total bytes moved by fluid flows.
func (pp *Pipe) FluidBytes() float64 {
	pp.integrateFluid()
	return pp.fluidBytes
}

// TotalBytes returns discrete+fluid bytes moved through the pipe.
func (pp *Pipe) TotalBytes() float64 {
	pp.integrateFluid()
	return pp.discreteBytes + pp.fluidBytes
}

// ResetStats zeroes byte/op counters (allocations are preserved), so a
// measurement interval can exclude warmup.
func (pp *Pipe) ResetStats() {
	pp.integrateFluid()
	pp.discreteBytes = 0
	pp.discreteOps = 0
	pp.fluidBytes = 0
	pp.latencySamples = 0
	pp.latencySum = 0
	for _, f := range pp.flows {
		f.bytes = 0
	}
}
