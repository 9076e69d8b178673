package ioctopus_test

import (
	"testing"
	"time"

	"ioctopus"
)

// TestPublicAPIQuickstart exercises the facade end to end: build the
// testbed, run a stream through the octoNIC, reproduce a figure.
func TestPublicAPIQuickstart(t *testing.T) {
	cl := ioctopus.NewCluster(ioctopus.Config{Mode: ioctopus.ModeIOctopus})
	defer cl.Drain()

	var received int64
	cl.Server.Stack.Listen(7, func(s *ioctopus.Socket) {
		cl.Server.Kernel.Spawn("server", 0, func(th *ioctopus.Thread) {
			s.SetOwner(th)
			for {
				n, _, ok := s.Recv(th)
				if !ok {
					return
				}
				received += n
			}
		})
	})
	cl.Client.Kernel.Spawn("client", 0, func(th *ioctopus.Thread) {
		sock, err := cl.Client.Stack.Dial(th, ioctopus.IPServerPF0, 7, ioctopus.ProtoTCP)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		for {
			sock.Send(th, 64*1024)
		}
	})
	cl.Run(10 * time.Millisecond)
	if received == 0 {
		t.Fatal("no bytes moved through the public API")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := ioctopus.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("experiments = %d, want >= 15", len(ids))
	}
	res, err := ioctopus.RunExperiment("fig2", ioctopus.QuickDurations())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("fig2 checks failed:\n%s", res.Render())
	}
	if _, err := ioctopus.RunExperiment("not-a-figure", ioctopus.QuickDurations()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestPublicAPIStorage(t *testing.T) {
	rig := ioctopus.NewStorageRig(ioctopus.NVMeOctoSSD, true)
	defer rig.Drain()
	f := ioctopus.StartFio(rig, []ioctopus.CoreID{0, 1})
	rig.Run(50 * time.Millisecond)
	f.MeasureStart()
	rig.Run(50 * time.Millisecond)
	if f.Bytes() == 0 {
		t.Fatal("no storage I/O completed")
	}
}

func TestPublicAPITopologies(t *testing.T) {
	if ioctopus.DualBroadwell().NumCores() != 28 {
		t.Fatal("broadwell shape wrong")
	}
	if ioctopus.DualSkylake().NumCores() != 48 {
		t.Fatal("skylake shape wrong")
	}
	if ioctopus.QuadSocket(8).NumNodes() != 4 {
		t.Fatal("quad shape wrong")
	}
}

func TestPublicAPIDurations(t *testing.T) {
	q, f := ioctopus.QuickDurations(), ioctopus.FullDurations()
	if q.Measure >= f.Measure || q.Timeline >= f.Timeline {
		t.Fatal("quick durations should be shorter than full")
	}
}
