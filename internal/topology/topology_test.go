package topology

import (
	"testing"
	"time"
)

func TestDualBroadwellShape(t *testing.T) {
	s := DualBroadwell()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2", s.NumNodes())
	}
	if s.NumCores() != 28 {
		t.Fatalf("cores = %d, want 28", s.NumCores())
	}
	if got := s.NodeOf(0); got != 0 {
		t.Fatalf("core 0 on node %d, want 0", got)
	}
	if got := s.NodeOf(14); got != 1 {
		t.Fatalf("core 14 on node %d, want 1", got)
	}
	if bw := s.Interconnect.AggregateBandwidth(); bw != 2*19.2e9 {
		t.Fatalf("QPI bandwidth = %v, want 38.4 GB/s", bw)
	}
}

func TestDualSkylakeShape(t *testing.T) {
	s := DualSkylake()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumCores() != 48 {
		t.Fatalf("cores = %d, want 48", s.NumCores())
	}
	if s.Sockets[1].DRAM.Capacity != 48*GiB {
		t.Fatalf("DRAM = %d", s.Sockets[1].DRAM.Capacity)
	}
}

func TestQuadSocketShape(t *testing.T) {
	q := QuadSocket(12)
	if q.NumCores() != 48 || q.NumNodes() != 4 {
		t.Fatal("quad-socket shape wrong")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoresOn(t *testing.T) {
	s := DualBroadwell()
	for node := 0; node < 2; node++ {
		cores := s.CoresOn(NodeID(node))
		if len(cores) != 14 {
			t.Fatalf("node %d has %d cores, want 14", node, len(cores))
		}
		for _, c := range cores {
			if c.Node != NodeID(node) {
				t.Fatalf("core %d on wrong node", c.ID)
			}
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	s := DualBroadwell()
	s.Sockets[0].Cores[3].Node = 1
	if err := s.Validate(); err == nil {
		t.Error("mismatched core node not caught")
	}

	s = DualBroadwell()
	s.Sockets[1].LLC.DDIOFraction = 1.5
	if err := s.Validate(); err == nil {
		t.Error("bad DDIO fraction not caught")
	}

	s = DualBroadwell()
	s.Interconnect.LinksPerPair = 0
	if err := s.Validate(); err == nil {
		t.Error("missing interconnect not caught")
	}

	s = DualBroadwell()
	s.Sockets[0].Cores[1].ID = s.Sockets[0].Cores[0].ID
	if err := s.Validate(); err == nil {
		t.Error("duplicate core id not caught")
	}

	if err := (&Server{Name: "empty"}).Validate(); err == nil {
		t.Error("empty server not caught")
	}
}

func TestSocketPanicsOutOfRange(t *testing.T) {
	s := DualBroadwell()
	defer func() {
		if recover() == nil {
			t.Error("Socket(9) should panic")
		}
	}()
	s.Socket(9)
}

func TestCorePanicsUnknown(t *testing.T) {
	s := DualBroadwell()
	defer func() {
		if recover() == nil {
			t.Error("Core(999) should panic")
		}
	}()
	s.Core(999)
}

func TestSpecConstants(t *testing.T) {
	b := DualBroadwell()
	if b.Sockets[0].LLC.Size != 35*MiB {
		t.Error("Broadwell LLC size wrong")
	}
	if b.Sockets[0].LLC.HitLatency != 18*time.Nanosecond {
		t.Error("LLC latency wrong")
	}
	if b.Sockets[0].DRAM.Latency != 85*time.Nanosecond {
		t.Error("DRAM latency wrong")
	}
	if b.Interconnect.BaseLatency != 60*time.Nanosecond {
		t.Error("QPI latency wrong")
	}
}
