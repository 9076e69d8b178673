package faults

import (
	"strings"
	"testing"
	"time"

	"ioctopus/internal/device"
	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/nic"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// devRig extends the base rig with what the device-fault kinds need: a
// loaded firmware, one queue pair on PF0 and a busy-poll loop pinned to
// a node-0 core.
type devRig struct {
	eng    *sim.Engine
	nic    *nic.NIC
	fw     nic.Firmware
	k      *kernel.Kernel
	poller *kernel.Poller
}

func newDevRig(t *testing.T) *devRig {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.DualBroadwell()
	fab := interconnect.New(e, topo)
	mem := memsys.New(e, topo, fab, true)
	pc := pcie.New(e, mem)
	eps := pc.AttachCard(pcie.CardConfig{
		Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1},
	})
	n := nic.New(e, "cx5", eps, nic.DefaultCoalesceDelay)
	fw := nic.NewOctoFirmware(n, false)
	n.LoadFirmware(fw)
	pf0 := n.PF(0)
	var bufs []*memsys.Buffer
	for i := 0; i < 8; i++ {
		bufs = append(bufs, mem.NewBuffer(0, 64*1024))
	}
	pf0.AddRxQueue(device.NewRing(mem, 0, 1024, 64), bufs, 0, nil)
	pf0.AddTxQueue(device.NewRing(mem, 0, 1024, 64), device.NewRing(mem, 0, 1024, 64), 0, nil)
	k := kernel.New(e, topo, mem)
	p := k.Core(0).StartPoller(func() (time.Duration, bool) { return time.Microsecond, false })
	return &devRig{eng: e, nic: n, fw: fw, k: k, poller: p}
}

func (r *devRig) targets() Targets {
	return Targets{Engine: r.eng, NIC: r.nic, Kernel: r.k, Pollers: []*kernel.Poller{r.poller}}
}

func TestValidateRejectsMalformedDeviceEvents(t *testing.T) {
	r := newDevRig(t)
	ms := time.Millisecond
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"queue-stall unknown pf", Event{Kind: QueueStall, PF: 9, Duration: ms}, "no PF 9"},
		{"queue-stall unknown queue", Event{Kind: QueueStall, PF: 0, Queue: 7, Duration: ms}, "no queue 7"},
		{"queue-stall negative queue", Event{Kind: QueueStall, PF: 0, Queue: -1, Duration: ms}, "no queue -1"},
		{"queue-stall without duration", Event{Kind: QueueStall, PF: 0, Queue: 0}, "positive duration"},
		{"poller-stall wrong node", Event{Kind: PollerStall, Node: 1, Duration: ms}, "no busy-poll loop on node 1"},
		{"poller-stall without duration", Event{Kind: PollerStall, Node: 0}, "positive duration"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Arm(&Plan{Events: []Event{c.ev}}, r.targets())
			if err == nil {
				t.Fatalf("Arm accepted %+v", c.ev)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateRejectsDeviceEventsWithoutTargets(t *testing.T) {
	eng := sim.NewEngine()
	ms := time.Millisecond
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"fw-reset without nic", Event{Kind: FirmwareReset}, "no NIC target"},
		{"queue-stall without nic", Event{Kind: QueueStall, Duration: ms}, "no NIC target"},
		{"poller-stall without pollers", Event{Kind: PollerStall, Duration: ms}, "no busy-poll loop on node 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Arm(&Plan{Events: []Event{c.ev}}, Targets{Engine: eng})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestValidateScheduleDeviceWindows: queue stalls and poller wedges are
// windowed state — two windows racing over one queue pair (or one
// node's poll loop) must be rejected, while independent targets and the
// instantaneous fw-reset compose freely.
func TestValidateScheduleDeviceWindows(t *testing.T) {
	ms := time.Millisecond
	reject := []struct {
		name string
		evs  []Event
		want string
	}{
		{"overlapping queue stalls same pair", []Event{
			{At: 0, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * ms},
			{At: ms, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * ms},
		}, "overlapping"},
		{"overlapping poller stalls same node", []Event{
			{At: 0, Kind: PollerStall, Node: 0, Duration: 2 * ms},
			{At: ms, Kind: PollerStall, Node: 0, Duration: 2 * ms},
		}, "overlapping"},
	}
	for _, c := range reject {
		t.Run(c.name, func(t *testing.T) {
			err := (&Plan{Events: c.evs}).validateSchedule()
			if err == nil {
				t.Fatalf("validateSchedule accepted %+v", c.evs)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	accept := []struct {
		name string
		evs  []Event
	}{
		{"overlapping queue stalls different queues", []Event{
			{At: 0, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * ms},
			{At: ms, Kind: QueueStall, PF: 0, Queue: 1, Duration: 2 * ms},
		}},
		{"overlapping queue stalls different pfs", []Event{
			{At: 0, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * ms},
			{At: ms, Kind: QueueStall, PF: 1, Queue: 0, Duration: 2 * ms},
		}},
		{"overlapping poller stalls different nodes", []Event{
			{At: 0, Kind: PollerStall, Node: 0, Duration: 2 * ms},
			{At: ms, Kind: PollerStall, Node: 1, Duration: 2 * ms},
		}},
		{"fw-resets are instantaneous", []Event{
			{At: 0, Kind: FirmwareReset},
			{At: 0, Kind: FirmwareReset},
		}},
		{"fw-reset inside a queue stall", []Event{
			{At: 0, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * ms},
			{At: ms, Kind: FirmwareReset},
		}},
	}
	for _, c := range accept {
		t.Run(c.name, func(t *testing.T) {
			if err := (&Plan{Events: c.evs}).validateSchedule(); err != nil {
				t.Fatalf("validateSchedule rejected a sound schedule: %v", err)
			}
		})
	}
}

// TestDeviceFaultsArmAndFire drives all three device kinds through one
// armed plan and checks each hit its target: the firmware table is
// wiped, the queue pair stalls exactly for its window, and the poll
// loop's iteration counter goes flat for the wedge.
func TestDeviceFaultsArmAndFire(t *testing.T) {
	r := newDevRig(t)
	r.fw.ProgramFlow(eth.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: eth.ProtoTCP}, 0, 0)
	plan := &Plan{Events: []Event{
		{At: time.Millisecond, Kind: FirmwareReset},
		{At: time.Millisecond, Kind: QueueStall, PF: 0, Queue: 0, Duration: 2 * time.Millisecond},
		{At: time.Millisecond, Kind: PollerStall, Node: 0, Duration: 2 * time.Millisecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}

	r.eng.RunFor(2 * time.Millisecond) // t=2ms: mid-window
	if r.fw.FlowCount() != 0 || inj.fwResets != 1 {
		t.Fatalf("fw reset did not bite: flows=%d resets=%d", r.fw.FlowCount(), inj.fwResets)
	}
	if !r.nic.PF(0).RxQueues()[0].Stalled() {
		t.Fatal("queue pair should be stalled mid-window")
	}
	iterAtWedge := r.poller.Iterations()

	r.eng.RunFor(500 * time.Microsecond) // still inside the wedge
	if got := r.poller.Iterations(); got != iterAtWedge {
		t.Fatalf("poll loop advanced %d iterations while wedged", got-iterAtWedge)
	}

	r.eng.RunFor(2 * time.Millisecond) // t=4.5ms: everything released
	if r.nic.PF(0).RxQueues()[0].Stalled() {
		t.Fatal("queue stall outlived its window")
	}
	if r.poller.Iterations() == iterAtWedge {
		t.Fatal("poll loop never resumed after the wedge")
	}
	if inj.fwResets != 1 || inj.queueStalls != 1 || inj.pollerStalls != 1 {
		t.Fatalf("injector counters fw=%d qs=%d ps=%d, want 1/1/1",
			inj.fwResets, inj.queueStalls, inj.pollerStalls)
	}
	if inj.eventsFired != 3 {
		t.Fatalf("events fired = %d, want 3", inj.eventsFired)
	}
	r.poller.Stop()
}
