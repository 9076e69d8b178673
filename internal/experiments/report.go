package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/topology"
	"ioctopus/internal/workloads"
)

// The JSON export is versioned so plotting pipelines can detect what
// they are reading: Schema names the artifact, Version increments on
// incompatible layout changes.
const (
	ReportSchema  = "ioctobench-report"
	ReportVersion = 1
)

// ReportDurations is the window configuration a report was run with,
// in seconds.
type ReportDurations struct {
	WarmupS      float64 `json:"warmup_s"`
	MeasureS     float64 `json:"measure_s"`
	TimelineS    float64 `json:"timeline_s"`
	SampleEveryS float64 `json:"sample_every_s"`
}

// ReportMeta records how the report was produced.
type ReportMeta struct {
	Figures     []string        `json:"figures"`
	Quick       bool            `json:"quick"`
	Parallelism int             `json:"parallelism"`
	GoVersion   string          `json:"go_version"`
	Durations   ReportDurations `json:"durations"`
}

// RegistrySnapshot is a full-system telemetry dump from the canonical
// smoke run of one NIC mode (see RegistrySnapshots).
type RegistrySnapshot struct {
	Mode       string           `json:"mode"`
	SimSeconds float64          `json:"sim_seconds"`
	Samples    []metrics.Sample `json:"samples"`
}

// Report is the versioned machine-readable form of an ioctobench run:
// metadata, every figure's tables/series/checks, and optional registry
// snapshots.
type Report struct {
	Schema   string             `json:"schema"`
	Version  int                `json:"version"`
	Meta     ReportMeta         `json:"meta"`
	Results  []*Result          `json:"results"`
	Registry []RegistrySnapshot `json:"registry,omitempty"`
}

// NewReport assembles a report around already-computed results.
func NewReport(ids []string, quick bool, d Durations, results []*Result) *Report {
	return &Report{
		Schema:  ReportSchema,
		Version: ReportVersion,
		Meta: ReportMeta{
			Figures:     ids,
			Quick:       quick,
			Parallelism: Parallelism(),
			GoVersion:   runtime.Version(),
			Durations: ReportDurations{
				WarmupS:      d.Warmup.Seconds(),
				MeasureS:     d.Measure.Seconds(),
				TimelineS:    d.Timeline.Seconds(),
				SampleEveryS: d.SampleEvery.Seconds(),
			},
		},
		Results: results,
	}
}

// RegistrySnapshots runs the canonical smoke workload — a single
// client->server TCP stream for warmup+measure — once per NIC mode and
// snapshots each cluster's full metrics registry. The figure runners
// build and discard clusters internally, so this is how a report gets
// whole-system telemetry: a deterministic, mode-comparable dump rather
// than whichever cluster happened to die last.
func RegistrySnapshots(d Durations) []RegistrySnapshot {
	var out []RegistrySnapshot
	for _, mode := range []core.NICMode{core.ModeStandard, core.ModeIOctopus} {
		cl := core.NewCluster(core.Config{Mode: mode})
		workloads.StartStream(cl, workloads.StreamConfig{
			MsgSize:     64 * 1024,
			Direction:   workloads.Rx,
			ServerCores: []topology.CoreID{0},
			ClientCores: []topology.CoreID{0},
			ServerIP:    core.IPServerPF0,
		})
		cl.Run(d.Warmup)
		cl.Run(d.Measure)
		snap := cl.Reg.Snapshot()
		out = append(out, RegistrySnapshot{
			Mode:       mode.String(),
			SimSeconds: cl.Eng.Now().Seconds(),
			Samples:    snap,
		})
		cl.Drain()
	}
	return out
}

// reportWire mirrors Report for validation: Result marshals through
// jsonResult, so it must be decoded through the same shape.
type reportWire struct {
	Schema   string             `json:"schema"`
	Version  int                `json:"version"`
	Meta     ReportMeta         `json:"meta"`
	Results  []jsonResult       `json:"results"`
	Registry []RegistrySnapshot `json:"registry"`
}

// ValidateReport checks that data is a well-formed report of the
// current schema version: the round-trip check `ioctobench -json` runs
// before declaring success, and what scripts/check.sh gates on.
func ValidateReport(data []byte) error {
	var w reportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("report: not valid JSON: %w", err)
	}
	if w.Schema != ReportSchema {
		return fmt.Errorf("report: schema %q, want %q", w.Schema, ReportSchema)
	}
	if w.Version != ReportVersion {
		return fmt.Errorf("report: version %d, want %d", w.Version, ReportVersion)
	}
	if len(w.Results) == 0 {
		return fmt.Errorf("report: no results")
	}
	if len(w.Meta.Figures) != len(w.Results) {
		return fmt.Errorf("report: meta names %d figures but has %d results",
			len(w.Meta.Figures), len(w.Results))
	}
	for i, r := range w.Results {
		if r.ID == "" {
			return fmt.Errorf("report: result %d has no id", i)
		}
		for _, t := range r.Tables {
			if len(t.Headers) == 0 {
				return fmt.Errorf("report: result %q table %q has no headers", r.ID, t.Title)
			}
		}
		for _, s := range r.Series {
			if len(s.TimesS) != len(s.Values) {
				return fmt.Errorf("report: result %q series %q has %d times for %d values",
					r.ID, s.Name, len(s.TimesS), len(s.Values))
			}
		}
	}
	for _, rs := range w.Registry {
		if rs.Mode == "" {
			return fmt.Errorf("report: registry snapshot without a mode")
		}
		for _, s := range rs.Samples {
			if s.Name == "" {
				return fmt.Errorf("report: registry snapshot %q has an unnamed sample", rs.Mode)
			}
		}
	}
	return nil
}

// Encode marshals the report with stable indentation (the on-disk
// format of `ioctobench -json <path>`).
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
