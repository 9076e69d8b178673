package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ioctopus/internal/metrics"
	"ioctopus/internal/sim"
)

// TestFiguresMatchGolden is the repository's headline test: every
// experiment's quick run, each run once, must pass all its shape checks
// and match the committed goldens, text and JSON report. all_quick is
// what `-fig all -quick` prints (the default interrupt datapath, so the
// poll-mode machinery stays byte-invisible until it is switched on);
// hidden_quick covers the harnesses outside IDs() (chaos, the pmd
// datapath sweep and the devchaos watchdog sweep). A golden pins
// identity, which implies run-to-run determinism. The test fans points
// over at least 8 workers, so the one run also shows that parallel
// output equals the committed output, and under -race it is the
// concurrent run of every figure runner. Environment-dependent metadata
// (Go version, harness parallelism) is normalized on both sides;
// everything else must match exactly.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at quick durations")
	}
	old := Parallelism()
	SetParallelism(max(8, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { SetParallelism(old) })
	for _, tc := range []struct {
		golden string
		ids    []string
	}{
		{"all_quick", IDs()},
		{"hidden_quick", []string{"chaos", "pmd", "devchaos"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			t.Parallel()
			wantText, err := os.ReadFile(filepath.Join("testdata", tc.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			d := Quick()
			results := make([]*Result, len(tc.ids))
			text := make([]string, len(tc.ids))
			for i, id := range tc.ids {
				t.Run(id, func(t *testing.T) {
					res, err := Run(id, d)
					if err != nil {
						t.Fatal(err)
					}
					results[i], text[i] = res, res.Render()+"\n"
					if len(res.Checks) == 0 {
						t.Error("experiment has no shape checks")
					}
					for _, c := range res.Checks {
						if !c.Pass {
							t.Errorf("check %q failed: %s", c.Name, c.Detail)
						}
					}
					want := goldenBlock(string(wantText), id)
					if want == "" {
						t.Fatalf("testdata/%s.txt has no %q block", tc.golden, "### "+id)
					}
					if text[i] != want {
						t.Errorf("quick-run text diverges from its block in testdata/%s.txt", tc.golden)
					}
				})
			}
			if slices.Contains(results, nil) {
				return // the run's subtest has reported why
			}
			if strings.Join(text, "") != string(wantText) {
				t.Errorf("quick-run text diverges from testdata/%s.txt", tc.golden)
			}

			rep := NewReport(tc.ids, true, d, results)
			rep.Registry = RegistrySnapshots(d)
			enc, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := os.ReadFile(filepath.Join("testdata", tc.golden+".json"))
			if err != nil {
				t.Fatal(err)
			}
			norm := func(s []byte) string {
				out := regexp.MustCompile(`"go_version": *"[^"]*"`).ReplaceAllString(string(s), `"go_version": "X"`)
				return regexp.MustCompile(`"parallelism": *[0-9]+`).ReplaceAllString(out, `"parallelism": 0`)
			}
			if norm(enc) != norm(wantJSON) {
				t.Errorf("quick-run JSON report diverges from testdata/%s.json", tc.golden)
			}
		})
	}
}

// goldenBlock returns id's block of a golden text, from its
// "### <id> — " header up to the next block's header, or "" if the
// golden has no such header.
func goldenBlock(golden, id string) string {
	head := "### " + id + " — "
	i := strings.Index("\n"+golden, "\n"+head)
	if i < 0 {
		return ""
	}
	block := golden[i:]
	if j := strings.Index(block[len(head):], "\n### "); j >= 0 {
		block = block[:len(head)+j+1]
	}
	return block
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("expected at least 12 experiments, have %d: %v", len(ids), ids)
	}
	want := []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Error("unknown id should error")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.check("in band", 1.0, 0.5, 1.5)
	r.check("out of band", 2.0, 0.5, 1.5)
	if r.Passed() {
		t.Error("Passed should be false with a failing check")
	}
	out := r.Render()
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Errorf("render missing statuses:\n%s", out)
	}
}

func TestResultJSON(t *testing.T) {
	res, err := Run("fig2", Quick())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["id"] != "fig2" || decoded["passed"] != true {
		t.Fatalf("json = %v", decoded)
	}
	if _, ok := decoded["tables"].([]any); !ok {
		t.Fatal("tables missing from json")
	}
}

func TestSeriesRenderUsesSparkline(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	s := &metrics.Series{Name: "pf0"}
	for i := 0; i < 10; i++ {
		s.Add(sim.Time(i*1000), float64(i))
	}
	r.Series = append(r.Series, s)
	out := r.Render()
	if !strings.Contains(out, "█") {
		t.Fatalf("render should contain sparkline glyphs:\n%s", out)
	}
}
