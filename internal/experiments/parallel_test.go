package experiments

import (
	"sync/atomic"
	"testing"
)

// TestPointsOrderAndCoverage: results land at their own index, every
// index runs exactly once, at serial and parallel levels.
func TestPointsOrderAndCoverage(t *testing.T) {
	for _, par := range []int{1, 4} {
		old := Parallelism()
		SetParallelism(par)
		var calls atomic.Int64
		out := points(50, func(i int) int {
			calls.Add(1)
			return i * i
		})
		SetParallelism(old)
		if calls.Load() != 50 {
			t.Fatalf("par=%d: fn ran %d times, want 50", par, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestGridShape: grid slots results by (outer, inner).
func TestGridShape(t *testing.T) {
	g := grid(3, 4, func(o, i int) int { return 10*o + i })
	if len(g) != 3 {
		t.Fatalf("outer = %d, want 3", len(g))
	}
	for o := range g {
		if len(g[o]) != 4 {
			t.Fatalf("inner = %d, want 4", len(g[o]))
		}
		for i, v := range g[o] {
			if v != 10*o+i {
				t.Fatalf("g[%d][%d] = %d, want %d", o, i, v, 10*o+i)
			}
		}
	}
}

// TestSetParallelismClamps: n < 1 degrades to serial, not a panic.
func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d, want 1", Parallelism())
	}
}
