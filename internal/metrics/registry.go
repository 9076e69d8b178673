// Registry: the unified observability layer. Every subsystem of an
// assembled host (pipes, LLC/DRAM, NIC queues and firmware, kernel
// cores, driver rings) registers named counter/gauge probes into one
// per-cluster registry at construction time; a Snapshot then reads all
// of them at a defined simulation instant, producing the
// machine-readable telemetry `ioctobench -json` exports, and Sum adds
// up the ones whose names match a pattern. Counters only grow: nothing
// resets one, so a measurement window is the difference of two reads.
//
// Names are namespaced with '/' by nesting scopes, e.g.
// "server/nic/pf0/rx_bytes". Probes are closures over live model
// state: registration costs nothing on the simulation hot path, and a
// registry that is never snapshotted is free.
package metrics

import (
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"sync"

	"ioctopus/internal/sim"
)

// Kind distinguishes monotonically increasing counters from
// point-in-time gauges.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically non-decreasing total (bytes moved,
	// frames dropped). Rates are derived by differencing snapshots.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level (utilization, queue depth).
	KindGauge
)

// String names the kind as it appears in JSON exports.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// MarshalJSON emits the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the string form back (report validation).
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	default:
		return fmt.Errorf("metrics: unknown kind %q", s)
	}
	return nil
}

// Sample is one probed value at snapshot time.
type Sample struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"kind"`
	Value float64 `json:"value"`
}

// Registrar is the registration surface handed to subsystems: register
// counters and gauges under the current namespace, or open a nested
// scope. Both *Registry (the root, empty namespace) and the scopes it
// returns implement it.
type Registrar interface {
	// Counter registers a monotonic total probe under the scope.
	Counter(name string, probe func() float64)
	// Gauge registers an instantaneous level probe under the scope.
	Gauge(name string, probe func() float64)
	// Scope returns a Registrar that prefixes names with name + "/".
	Scope(name string) Registrar
}

type probeEntry struct {
	kind  Kind
	probe func() float64
}

// Registry holds a cluster's registered probes. The zero value is not
// usable; construct with NewRegistry. Registration, Snapshot and Sum
// are safe for concurrent use (distinct clusters run on distinct
// goroutines under the parallel harness; a single cluster's registry
// is also shared by its subsystems during assembly).
type Registry struct {
	mu      sync.Mutex
	entries map[string]probeEntry
	// names is the registered names in sorted order, built on the first
	// read after a registration and shared by every read until the next
	// one, so a read allocates nothing for it. It is replaced, never
	// modified.
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]probeEntry)}
}

// register adds a probe under its full name; duplicate names are a
// wiring bug and panic so they surface in tests, not as silently
// clobbered telemetry.
func (r *Registry) register(kind Kind, name string, probe func() float64) {
	if probe == nil {
		panic(fmt.Sprintf("metrics: nil probe for %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.entries[name] = probeEntry{kind: kind, probe: probe}
	r.names = nil
}

// sortedNames returns the registered names in sorted order.
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names == nil {
		names := make([]string, 0, len(r.entries))
		for n := range r.entries {
			names = append(names, n)
		}
		sort.Strings(names)
		r.names = names
	}
	return r.names
}

// entry looks one metric up by full name. The caller probes it after
// entry returns, outside the lock: probes may touch model state that in
// turn reads the registry-owning cluster, and holding the mutex during
// arbitrary callbacks invites deadlock.
func (r *Registry) entry(name string) (probeEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	return e, ok
}

// Counter implements Registrar at the root (empty) namespace.
func (r *Registry) Counter(name string, probe func() float64) {
	r.register(KindCounter, name, probe)
}

// Gauge implements Registrar at the root namespace.
func (r *Registry) Gauge(name string, probe func() float64) {
	r.register(KindGauge, name, probe)
}

// Scope implements Registrar: names registered through the returned
// Registrar are prefixed with name + "/".
func (r *Registry) Scope(name string) Registrar {
	return scope{reg: r, prefix: name + "/"}
}

// Value reads one metric by full name.
func (r *Registry) Value(name string) (float64, bool) {
	e, ok := r.entry(name)
	if !ok {
		return 0, false
	}
	return e.probe(), true
}

// Snapshot probes every registered metric and returns the samples
// sorted by name, so snapshots are deterministic and diffable.
func (r *Registry) Snapshot() []Sample {
	names := r.sortedNames()
	out := make([]Sample, len(names))
	for i, n := range names {
		e, _ := r.entry(n)
		out[i] = Sample{Name: n, Kind: e.kind, Value: e.probe()}
	}
	return out
}

// Sum adds up every registered metric, counter or gauge, whose name
// matches pattern in path.Match syntax: '*' matches within one
// '/'-separated level, so "*/stack/retx/retransmits" reads both hosts'
// stacks and "server/nic/pf*/*_link_drops" every server PF's two
// link-drop counters. It also returns how many metrics matched, and an
// error only for a malformed pattern. Metrics are summed in name
// order, so a sum of float gauges is deterministic.
func (r *Registry) Sum(pattern string) (total float64, matched int, err error) {
	if _, err := path.Match(pattern, ""); err != nil {
		return 0, 0, fmt.Errorf("metrics: pattern %q: %w", pattern, err)
	}
	for _, n := range r.sortedNames() {
		if ok, _ := path.Match(pattern, n); ok {
			e, _ := r.entry(n)
			total += e.probe()
			matched++
		}
	}
	return total, matched, nil
}

// scope is a prefixed view of a registry.
type scope struct {
	reg    *Registry
	prefix string
}

func (s scope) Counter(name string, probe func() float64) {
	s.reg.register(KindCounter, s.prefix+name, probe)
}

func (s scope) Gauge(name string, probe func() float64) {
	s.reg.register(KindGauge, s.prefix+name, probe)
}

func (s scope) Scope(name string) Registrar {
	return scope{reg: s.reg, prefix: s.prefix + name + "/"}
}

// RegisterPipe registers a sim.Pipe's counters and gauges under the
// given scope: total discrete/fluid bytes and ops plus live
// utilization and latency. Pipes live in the sim package, which metrics
// imports (and not vice versa), so the glue lives here.
func RegisterPipe(r Registrar, p *sim.Pipe) {
	r.Counter("discrete_bytes", p.DiscreteBytes)
	r.Counter("discrete_ops", func() float64 { return float64(p.DiscreteOps()) })
	r.Counter("fluid_bytes", p.FluidBytes)
	r.Gauge("utilization", p.Utilization)
	r.Gauge("fluid_rate_bps", p.FluidRate)
	r.Gauge("mean_latency_seconds", func() float64 { return p.MeanLatency().Seconds() })
}

// RegisterEngine registers the simulation engine's own health metrics.
func RegisterEngine(r Registrar, e *sim.Engine) {
	r.Counter("events_executed", func() float64 { return float64(e.Executed) })
	r.Gauge("events_pending", func() float64 { return float64(e.Pending()) })
	r.Gauge("now_seconds", func() float64 { return e.Now().Seconds() })
}
