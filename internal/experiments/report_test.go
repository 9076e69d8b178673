package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestReportGoldenRoundTrip pins the on-disk JSON layout: fig2 is a
// static dataset (no simulation), so the report built from it is fully
// deterministic once the environment-dependent meta fields are fixed.
// Regenerate with `go test ./internal/experiments/ -run Golden -update`
// after an intentional schema change (and bump ReportVersion).
func TestReportGoldenRoundTrip(t *testing.T) {
	res, err := Run("fig2", Quick())
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport([]string{"fig2"}, true, Quick(), []*Result{res})
	rep.Meta.GoVersion = "go-test"
	rep.Meta.Parallelism = 1

	got, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_fig2.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report JSON drifted from golden %s;\nrun with -update if the change is intentional.\ngot:\n%s", golden, got)
	}
	if err := ValidateReport(got); err != nil {
		t.Fatalf("golden report does not validate: %v", err)
	}
}

func TestValidateReportRejectsMalformed(t *testing.T) {
	res, err := Run("fig2", Quick())
	if err != nil {
		t.Fatal(err)
	}
	good := NewReport([]string{"fig2"}, true, Quick(), []*Result{res})

	cases := []struct {
		name   string
		mutate func(m map[string]any)
	}{
		{"wrong schema", func(m map[string]any) { m["schema"] = "something-else" }},
		{"wrong version", func(m map[string]any) { m["version"] = ReportVersion + 1 }},
		{"no results", func(m map[string]any) { m["results"] = []any{} }},
		{"figure count mismatch", func(m map[string]any) {
			meta := m["meta"].(map[string]any)
			meta["figures"] = []any{"fig2", "fig6"}
		}},
	}
	for _, tc := range cases {
		b, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		tc.mutate(m)
		mutated, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateReport(mutated); err == nil {
			t.Fatalf("%s: validation passed, want error", tc.name)
		}
	}
	if err := ValidateReport([]byte("{not json")); err == nil {
		t.Fatal("garbage input validated")
	}
}
