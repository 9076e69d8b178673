package experiments

import "testing"

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
