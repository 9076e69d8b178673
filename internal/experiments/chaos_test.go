package experiments

import (
	"testing"
	"time"
)

func TestChaosIsHiddenButRunnable(t *testing.T) {
	if !Has("chaos") {
		t.Fatal("chaos must be runnable by name")
	}
	if Has("no-such-experiment") {
		t.Fatal("Has accepted a bogus id")
	}
	for _, id := range IDs() {
		if id == "chaos" {
			t.Fatal("chaos must stay out of IDs() (and therefore out of -fig all)")
		}
	}
}

// TestChaosDeterministicAcrossRuns runs the fault-injection harness
// twice at a reduced timeline and requires byte-identical reports: the
// whole run — loss RNG, failover timing, sampled series — is a pure
// function of the plan seed. (The hidden_quick golden pins it at the
// -quick scale.)
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("two chaos runs take a few seconds")
	}
	d := Durations{Timeline: 200 * time.Millisecond, SampleEvery: 5 * time.Millisecond}
	a, err := Run("chaos", d)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	b, err := Run("chaos", d)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if a.Render() != b.Render() {
		t.Fatal("chaos is not byte-identical across same-seed runs")
	}
}
