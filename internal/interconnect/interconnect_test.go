package interconnect

import (
	"math"
	"testing"
	"time"

	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

func newFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, topology.DualBroadwell())
}

func TestFabricPipesExist(t *testing.T) {
	_, f := newFabric(t)
	if f.Nodes() != 2 {
		t.Fatalf("nodes = %d", f.Nodes())
	}
	p01 := f.Pipe(0, 1)
	p10 := f.Pipe(1, 0)
	if p01 == p10 {
		t.Fatal("directions must be independent pipes")
	}
	// 38.4 MB serializes in 1 ms at the link's 38.4 GB/s.
	if ser := p01.Latency(38_400_000) - p01.Latency(0); ser < 999*time.Microsecond || ser > 1001*time.Microsecond {
		t.Fatalf("38.4 MB serializes in %v, want 1 ms at 38.4 GB/s", ser)
	}
}

func TestFabricSelfPipePanics(t *testing.T) {
	_, f := newFabric(t)
	defer func() {
		if recover() == nil {
			t.Error("Pipe(0,0) should panic")
		}
	}()
	f.Pipe(0, 0)
}

func TestChargeLocalIsFree(t *testing.T) {
	_, f := newFabric(t)
	if lat := f.Charge(1, 1, 4096); lat != 0 {
		t.Fatalf("local charge latency = %v, want 0", lat)
	}
	if f.TotalBytes() != 0 {
		t.Fatal("local charge should not move fabric bytes")
	}
}

func TestChargeRemoteCostsAndAccounts(t *testing.T) {
	_, f := newFabric(t)
	lat := f.Charge(0, 1, 64)
	if lat < 60*sim.Nanosecond {
		t.Fatalf("remote latency = %v, want >= base 60ns", lat)
	}
	if f.TotalBytes() != 64 {
		t.Fatalf("fabric bytes = %v, want 64", f.TotalBytes())
	}
	// Direction independence: 1->0 pipe untouched.
	if f.Pipe(1, 0).DiscreteBytes() != 0 {
		t.Fatal("reverse direction should be untouched")
	}
}

func TestFluidCongestionInflatesLatency(t *testing.T) {
	_, f := newFabric(t)
	idle := f.Latency(0, 1, 64)
	f.AddFlow("stream", 0, 1, 37e9) // ~96% of 38.4 GB/s
	loaded := f.Latency(0, 1, 64)
	if loaded < 2*idle {
		t.Fatalf("congestion should inflate latency: idle=%v loaded=%v", idle, loaded)
	}
}

func TestFluidFlowsShareLink(t *testing.T) {
	_, f := newFabric(t)
	f1 := f.AddFlow("a", 0, 1, 30e9)
	f2 := f.AddFlow("b", 0, 1, 30e9)
	want := 38.4e9 / 2
	if math.Abs(f1.Rate()-want) > 1e8 || math.Abs(f2.Rate()-want) > 1e8 {
		t.Fatalf("rates = %v, %v; want %v", f1.Rate(), f2.Rate(), want)
	}
	// Opposite direction unaffected.
	if u := f.Pipe(1, 0).Utilization(); u != 0 {
		t.Fatalf("reverse utilization = %v, want 0", u)
	}
}

func TestTransferCompletion(t *testing.T) {
	e, f := newFabric(t)
	var done sim.Time
	f.Pipe(0, 1).Transfer(38400, func() { done = e.Now() }) // 38400 B at 38.4 GB/s = 1us + 60ns
	e.RunUntilIdle()
	want := sim.Time(1060)
	if done != want {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestQuadFabricFullMesh(t *testing.T) {
	e := sim.NewEngine()
	f := New(e, topology.QuadSocket(12))
	count := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if f.Pipe(topology.NodeID(i), topology.NodeID(j)) == nil {
				t.Fatalf("missing pipe %d->%d", i, j)
			}
			count++
		}
	}
	if count != 12 {
		t.Fatalf("pipes = %d, want 12", count)
	}
}
