package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ioctopus/internal/sim"
)

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Percentile(50); got < 49*time.Microsecond || got > 51*time.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got < 98*time.Microsecond || got > 100*time.Microsecond {
		t.Fatalf("p99 = %v", got)
	}
	if h.Percentile(0) != time.Microsecond || h.Percentile(100) != 100*time.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Percentile(0), h.Percentile(100))
	}
	if h.Mean() != 50500*time.Nanosecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramPercentilesOrdered(t *testing.T) {
	f := func(samples []int16) bool {
		h := &Histogram{}
		for _, s := range samples {
			d := time.Duration(s)
			if d < 0 {
				d = -d
			}
			h.Add(d)
		}
		return h.Percentile(10) <= h.Percentile(50) &&
			h.Percentile(50) <= h.Percentile(90) &&
			h.Percentile(90) <= h.Percentile(100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSamplerRates(t *testing.T) {
	e := sim.NewEngine()
	var counter float64
	e.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			e.After(time.Millisecond, p.ResumeFunc())
			p.Yield()
			counter += 10 // 10 units per ms = 10000/s
		}
	})
	s := NewSampler(e, 10*time.Millisecond)
	series := s.TrackRate("rate", func() float64 { return counter })
	s.Start()
	e.Run(sim.Time(95 * time.Millisecond))
	e.Drain()
	if series.Len() < 8 {
		t.Fatalf("samples = %d", series.Len())
	}
	// Steady rate of 10 per ms = 10000/s.
	for i := 1; i < series.Len(); i++ {
		if series.Values[i] < 9000 || series.Values[i] > 11000 {
			t.Fatalf("rate sample %d = %v, want ~10000", i, series.Values[i])
		}
	}
}

// TestHistogramPercentileEdges: the documented clamping contract.
// Percentile(0) and Percentile(100) are the smallest and largest sample
// of any non-empty histogram; an empty histogram reports zero
// everywhere.
func TestHistogramPercentileEdges(t *testing.T) {
	empty := &Histogram{}
	for _, p := range []float64{-5, 0, 50, 100, 150} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v", p, got)
		}
	}

	single := &Histogram{}
	single.Add(7 * time.Microsecond)
	for _, p := range []float64{-1, 0, 0.001, 50, 100, 101} {
		if got := single.Percentile(p); got != 7*time.Microsecond {
			t.Fatalf("single-sample Percentile(%v) = %v", p, got)
		}
	}

	h := &Histogram{}
	h.Add(3 * time.Microsecond)
	h.Add(time.Microsecond)
	h.Add(2 * time.Microsecond)
	if h.Percentile(0) != time.Microsecond {
		t.Fatalf("p0 = %v", h.Percentile(0))
	}
	if h.Percentile(100) != 3*time.Microsecond {
		t.Fatalf("p100 = %v", h.Percentile(100))
	}
	if h.Percentile(200) != 3*time.Microsecond || h.Percentile(-200) != time.Microsecond {
		t.Fatal("out-of-range p must clamp")
	}
}

// TestSamplerTrackRateFirstTick: the first tick reports the rate since
// Start, not an absolute-counter spike (TrackRate primes the baseline).
func TestSamplerTrackRateFirstTick(t *testing.T) {
	e := sim.NewEngine()
	counter := 1e12 // huge pre-existing total: an unprimed delta would explode
	e.Go("gen", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			e.After(time.Millisecond, p.ResumeFunc())
			p.Yield()
			counter += 10
		}
	})
	s := NewSampler(e, 10*time.Millisecond)
	rate := s.TrackRate("rate", func() float64 { return counter })
	s.Start()
	e.Run(sim.Time(15 * time.Millisecond))
	e.Drain()
	if rate.Len() == 0 {
		t.Fatal("no first tick")
	}
	if v := rate.Values[0]; v < 9000 || v > 11000 {
		t.Fatalf("first tick = %v, want ~10000 (baseline not primed)", v)
	}
}

// TestTableRenderOverflowRow: a row with more cells than headers must
// render (extra unlabeled columns), not panic with index out of range.
func TestTableRenderOverflowRow(t *testing.T) {
	tb := NewTable("overflow", "a", "b")
	tb.AddRow("x", "y")
	tb.AddRow("one", "two", "three-extra", 4)
	tb.AddRow("short")
	out := tb.Render() // must not panic
	if !strings.Contains(out, "three-extra") || !strings.Contains(out, "4") {
		t.Fatalf("overflow cells missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta-long-name", 250*time.Nanosecond)
	out := tb.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
}

func TestConversions(t *testing.T) {
	if Gbps(1.25e9, time.Second) != 10 {
		t.Fatal("Gbps wrong")
	}
	if GBs(2e9, 2*time.Second) != 1 {
		t.Fatal("GBs wrong")
	}
	if Gbps(100, 0) != 0 {
		t.Fatal("zero window should not divide by zero")
	}
}

func TestSpark(t *testing.T) {
	s := &Series{}
	for i, v := range []float64{0, 25, 50, 75, 100} {
		s.Add(sim.Time(i), v)
	}
	spark := s.Spark()
	if len([]rune(spark)) != 5 {
		t.Fatalf("spark = %q", spark)
	}
	runes := []rune(spark)
	if runes[0] != '▁' || runes[4] != '█' {
		t.Fatalf("spark scaling wrong: %q", spark)
	}
	if s.Max() != 100 {
		t.Fatalf("max = %v", s.Max())
	}
	if (&Series{}).Spark() != "" {
		t.Fatal("empty series should render empty")
	}
}

func TestTableCells(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow(1, 2.5)
	cells := tb.Cells()
	if len(cells) != 1 || cells[0][0] != "1" || cells[0][1] != "2.5" {
		t.Fatalf("cells = %v", cells)
	}
	cells[0][0] = "mutated"
	if tb.Cells()[0][0] == "mutated" {
		t.Fatal("Cells must return a copy")
	}
}
