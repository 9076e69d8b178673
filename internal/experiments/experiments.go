// Package experiments reproduces every evaluation artifact of the paper
// — Figures 6 through 15 plus the §2.6 trend data of Figure 2 — and a
// set of ablations for the design choices DESIGN.md calls out. Each
// runner builds the §5 testbed, drives the same workload with the same
// parameters, and emits the rows/series the paper plots, together with
// shape checks (who wins, by what factor, where the crossover falls).
// RunSpec (spec.go) is the one runner for declarative scenario.Specs.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"ioctopus/internal/metrics"
	"ioctopus/internal/sim"
)

// Check is one shape assertion against the paper.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Series []*metrics.Series
	Notes  []string
	Checks []Check
}

// check records a bounded-ratio assertion.
func (r *Result) check(name string, value, lo, hi float64) {
	r.Checks = append(r.Checks, Check{
		Name:   name,
		Pass:   value >= lo && value <= hi,
		Detail: fmt.Sprintf("%.3f (want %.2f..%.2f)", value, lo, hi),
	})
}

// checkTrue records a boolean assertion.
func (r *Result) checkTrue(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: ok, Detail: detail})
}

// Passed reports whether every check passed.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render formats the full result as text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		span := ""
		if s.Len() > 0 {
			span = fmt.Sprintf("  [%.2fs..%.2fs, max %.1f]",
				s.Times[0].Seconds(), s.Times[s.Len()-1].Seconds(), s.Max())
		}
		fmt.Fprintf(&b, "series %-22s %s%s\n", s.Name, s.Spark(), span)
	}
	if len(r.Series) > 0 {
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	return b.String()
}

// Durations scales simulated warmup/measurement windows.
type Durations struct {
	Warmup  time.Duration
	Measure time.Duration
	// Timeline is the Figure 14 run length.
	Timeline time.Duration
	// SampleEvery is the Figure 14 sampling period.
	SampleEvery time.Duration
}

// Quick returns short windows for tests and CI.
func Quick() Durations {
	return Durations{
		Warmup:      4 * time.Millisecond,
		Measure:     16 * time.Millisecond,
		Timeline:    900 * time.Millisecond,
		SampleEvery: 10 * time.Millisecond,
	}
}

// Full returns the windows the committed EXPERIMENTS.md numbers use.
func Full() Durations {
	return Durations{
		Warmup:      10 * time.Millisecond,
		Measure:     60 * time.Millisecond,
		Timeline:    9 * time.Second,
		SampleEvery: 50 * time.Millisecond,
	}
}

// Runner is an experiment entry point.
type Runner func(d Durations) *Result

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
	registryOrder = append(registryOrder, id)
}

// registerHidden registers a runner that is runnable by name but not
// part of IDs() — so `-fig all` and its committed output never change
// when a non-figure harness (the chaos run) is added.
func registerHidden(id string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
}

// Has reports whether id names a runnable experiment, including hidden
// ones (CLI flag validation).
func Has(id string) bool {
	_, ok := registry[id]
	return ok
}

// Run executes one experiment by id.
func Run(id string, d Durations) (*Result, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return fn(d), nil
}

// jsonResult is the machine-readable form of a Result.
type jsonResult struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Tables []jsonTable  `json:"tables,omitempty"`
	Series []jsonSeries `json:"series,omitempty"`
	Notes  []string     `json:"notes,omitempty"`
	Checks []Check      `json:"checks"`
	Passed bool         `json:"passed"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonSeries struct {
	Name   string    `json:"name"`
	TimesS []float64 `json:"times_s"`
	Values []float64 `json:"values"`
}

// MarshalJSON exports the result for plotting pipelines
// (ioctobench -json).
func (r *Result) MarshalJSON() ([]byte, error) {
	out := jsonResult{
		ID: r.ID, Title: r.Title, Notes: r.Notes,
		Checks: r.Checks, Passed: r.Passed(),
	}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, jsonTable{
			Title: t.Title, Headers: t.Headers, Rows: t.Cells(),
		})
	}
	for _, s := range r.Series {
		js := jsonSeries{Name: s.Name, Values: s.Values}
		for _, tm := range s.Times {
			js.TimesS = append(js.TimesS, sim.Time(tm).Seconds())
		}
		out.Series = append(out.Series, js)
	}
	return json.Marshal(out)
}

// IDs lists experiment ids: paper figures in figure order, then the
// ablations and baselines alphabetically.
func IDs() []string {
	ids := append([]string(nil), registryOrder...)
	rank := func(id string) (int, string) {
		var n int
		if _, err := fmt.Sscanf(id, "fig%d", &n); err == nil {
			return n, id
		}
		return 1000, id
	}
	sort.SliceStable(ids, func(i, j int) bool {
		ni, si := rank(ids[i])
		nj, sj := rank(ids[j])
		if ni != nj {
			return ni < nj
		}
		return si < sj
	})
	return ids
}
