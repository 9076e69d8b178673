package metrics

import (
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"ioctopus/internal/sim"
)

func TestRegistryScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var frames float64 = 41
	r.Counter("rx_frames", func() float64 { return frames })
	nic := r.Scope("nic").Scope("pf0")
	nic.Counter("rx_bytes", func() float64 { return 1500 })
	nic.Gauge("queue_depth", func() float64 { return 3 })

	if len(r.entries) != 3 {
		t.Fatalf("len = %d", len(r.entries))
	}
	frames++
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Name < snap[j].Name }) {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	want := map[string]struct {
		kind  Kind
		value float64
	}{
		"rx_frames":           {KindCounter, 42},
		"nic/pf0/rx_bytes":    {KindCounter, 1500},
		"nic/pf0/queue_depth": {KindGauge, 3},
	}
	for _, s := range snap {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected sample %q", s.Name)
		}
		if s.Kind != w.kind || s.Value != w.value {
			t.Fatalf("sample %q = %v/%v, want %v/%v", s.Name, s.Kind, s.Value, w.kind, w.value)
		}
	}
	if v, ok := r.Value("nic/pf0/rx_bytes"); !ok || v != 1500 {
		t.Fatalf("Value = %v/%v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value of unknown name must report !ok")
	}
}

// TestRegistrySum: '*' stays within one name level, counters and
// gauges both add up, no match is (0, 0, nil), a malformed pattern is
// an error, a metric registered after a Sum is seen by the next, and a
// Sum allocates nothing.
func TestRegistrySum(t *testing.T) {
	r := NewRegistry()
	for _, host := range []string{"server", "client"} {
		retx := r.Scope(host).Scope("stack").Scope("retx")
		retx.Counter("retransmits", func() float64 { return 3 })
		retx.Gauge("in_flight", func() float64 { return 0.5 })
	}
	r.Scope("server").Scope("stack").Counter("retransmits", func() float64 { return 100 })
	cases := []struct {
		pattern string
		total   float64
		matched int
	}{
		{"*/stack/retx/retransmits", 6, 2},
		{"*/retransmits", 0, 0}, // '*' does not cross '/'
		{"server/stack/*", 100, 1},
		{"server/stack/retx/*", 3.5, 2},
		{"*/stack/retx/*", 7, 4},
		{"nope/*", 0, 0},
	}
	for _, c := range cases {
		total, matched, err := r.Sum(c.pattern)
		if err != nil || total != c.total || matched != c.matched {
			t.Errorf("Sum(%q) = (%v, %d, %v), want (%v, %d, nil)", c.pattern, total, matched, err, c.total, c.matched)
		}
	}
	if _, _, err := r.Sum("server/stack/["); err == nil {
		t.Error("Sum accepted a malformed pattern")
	}
	if _, _, err := NewRegistry().Sum("a/["); err == nil {
		t.Error("Sum on an empty registry accepted a malformed pattern")
	}
	r.Scope("server").Scope("stack").Scope("retx").Counter("abandoned", func() float64 { return 1 })
	if total, matched, _ := r.Sum("*/stack/retx/*"); total != 8 || matched != 5 {
		t.Errorf("after a registration Sum = (%v, %d), want (8, 5)", total, matched)
	}
	if n := len(r.Snapshot()); n != 6 {
		t.Errorf("after a registration Snapshot has %d samples, want 6", n)
	}
	// The spec runner sums a few dozen patterns per run.
	if allocs := testing.AllocsPerRun(10, func() { _, _, _ = r.Sum("*/stack/retx/*") }); allocs != 0 {
		t.Errorf("Sum allocates %v times per call", allocs)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Gauge("x", func() float64 { return 0 })
}

func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := r.Scope("worker" + string(rune('a'+i)))
			for j := 0; j < 50; j++ {
				sc.Counter("c"+string(rune('a'+j%26))+string(rune('a'+j/26)), func() float64 { return 1 })
				// Reads rebuild the sorted-name cache that other
				// workers' registrations keep clearing.
				if _, _, err := r.Sum("worker*/*"); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if len(r.entries) != 8*50 {
		t.Fatalf("len = %d", len(r.entries))
	}
	if got := len(r.Snapshot()); got != 8*50 {
		t.Fatalf("snapshot = %d", got)
	}
	if total, matched, _ := r.Sum("worker*/*"); total != 8*50 || matched != 8*50 {
		t.Fatalf("Sum = (%v, %d), want (400, 400)", total, matched)
	}
}

func TestRegisterPipeAndEngine(t *testing.T) {
	e := sim.NewEngine()
	p := sim.NewPipe(e, sim.PipeConfig{Name: "link", BytesPerSec: 1e9})
	r := NewRegistry()
	RegisterPipe(r.Scope("link"), p)
	RegisterEngine(r.Scope("engine"), e)

	done := 0
	p.Transfer(1000, func() { done++ })
	e.RunUntilIdle()

	mustValue := func(name string, want float64) {
		t.Helper()
		v, ok := r.Value(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if v != want {
			t.Fatalf("%s = %v, want %v", name, v, want)
		}
	}
	mustValue("link/discrete_bytes", 1000)
	mustValue("link/discrete_ops", 1)
	mustValue("engine/events_executed", 1)
	mustValue("engine/events_pending", 0)
	if v, _ := r.Value("engine/now_seconds"); v <= 0 {
		t.Fatalf("now_seconds = %v", v)
	}
}

func TestSampleJSON(t *testing.T) {
	b, err := json.Marshal(Sample{Name: "a/b", Kind: KindGauge, Value: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"name":"a/b","kind":"gauge","value":1.5}` {
		t.Fatalf("json = %s", b)
	}
}
