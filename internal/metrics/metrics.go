// Package metrics provides the measurement utilities the benchmark
// harness reports with: latency histograms with percentiles, periodic
// time-series samplers (the 50 ms per-PF throughput samples of Figure
// 14), and plain-text table rendering for the figure reproductions.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ioctopus/internal/sim"
)

// Histogram collects duration samples and reports order statistics.
type Histogram struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// Add records a sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
	h.sum += d
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Percentile returns the p-th percentile by nearest rank. p is clamped
// to [0, 100]: p <= 0 returns the smallest sample, p >= 100 the
// largest, and an empty histogram reports 0 for any p.
func (h *Histogram) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(p/100*float64(len(h.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

// Series is a sampled time series.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Add appends a point.
func (s *Series) Add(t sim.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the point count.
func (s *Series) Len() int { return len(s.Values) }

// Sampler periodically samples counters into Series as rates, e.g.
// per-PF byte counters every 50 ms for Figure 14.
type Sampler struct {
	eng      *sim.Engine
	interval time.Duration
	series   []*Series
	probes   []func() float64
	prev     []float64
}

// NewSampler creates a sampler with the given period; call Start to
// begin.
func NewSampler(e *sim.Engine, interval time.Duration) *Sampler {
	return &Sampler{eng: e, interval: interval}
}

// TrackRate adds a counter probe: each tick records the delta since the
// previous tick divided by the interval (a rate). The first delta is
// taken from the probe's value now, so track at the instant of Start.
func (s *Sampler) TrackRate(name string, probe func() float64) *Series {
	se := &Series{Name: name}
	s.series = append(s.series, se)
	s.probes = append(s.probes, probe)
	s.prev = append(s.prev, probe())
	return se
}

// Start schedules the first tick; the sampler then ticks every
// interval until the engine is drained. Call it once.
func (s *Sampler) Start() { s.eng.After(s.interval, s.tick) }

func (s *Sampler) tick() {
	now := s.eng.Now()
	for i, probe := range s.probes {
		v := probe()
		delta := v - s.prev[i]
		s.prev[i] = v
		s.series[i].Add(now, delta/s.interval.Seconds())
	}
	s.eng.After(s.interval, s.tick)
}

// Table renders aligned plain-text result tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 3
// significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case time.Duration:
			row[i] = v.Round(10 * time.Nanosecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the aligned table text. Rows wider than the header
// get extra unlabeled columns rather than panicking; rows narrower than
// the header simply end early.
func (t *Table) Render() string {
	ncols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Gbps converts a byte count over a window to gigabits per second.
func Gbps(bytes float64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return bytes * 8 / window.Seconds() / 1e9
}

// GBs converts a byte count over a window to gigabytes per second.
func GBs(bytes float64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return bytes / window.Seconds() / 1e9
}

// sparkLevels are the eight block glyphs used by Spark.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Spark renders the series' values as a unicode sparkline, scaled to
// the series' own maximum — enough to see the Figure 14 handoff in a
// terminal.
func (s *Series) Spark() string {
	if len(s.Values) == 0 {
		return ""
	}
	maxV := s.Values[0]
	for _, v := range s.Values {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]rune, len(s.Values))
	for i, v := range s.Values {
		if maxV <= 0 || v <= 0 {
			out[i] = sparkLevels[0]
			continue
		}
		idx := int(v / maxV * float64(len(sparkLevels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		out[i] = sparkLevels[idx]
	}
	return string(out)
}

// Max returns the series' largest value (0 when empty).
func (s *Series) Max() float64 {
	var m float64
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// Cells returns a copy of the table's formatted rows (for JSON export).
func (t *Table) Cells() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}
