package faults

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ioctopus/internal/eth"
	"ioctopus/internal/interconnect"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/nic"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// stubPort is a wire endpoint that just records delivered frames.
type stubPort struct {
	mac eth.MAC
	got []*eth.Frame
}

func (p *stubPort) Receive(f *eth.Frame) { p.got = append(p.got, f) }

// rig assembles every fault target once: a 2-PF NIC for link faults, a
// wire between two stub ports for loss faults, a fabric for degradation
// and a kernel for stalls. Traffic for the wire tests flows between the
// stubs, so no firmware or queues are needed on the NIC.
type rig struct {
	eng    *sim.Engine
	nic    *nic.NIC
	wire   *eth.Wire
	server *stubPort
	client *stubPort
	fab    *interconnect.Fabric
	k      *kernel.Kernel
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine()
	topo := topology.DualBroadwell()
	fab := interconnect.New(e, topo)
	mem := memsys.New(e, topo, fab, true)
	pf := pcie.New(e, mem)
	eps := pf.AttachCard(pcie.CardConfig{
		Name: "cx5", Gen: pcie.Gen3, TotalLanes: 16,
		Wiring: pcie.WiringBifurcated, Nodes: []topology.NodeID{0, 1},
	})
	n := nic.New(e, "cx5", eps, nic.DefaultCoalesceDelay)
	k := kernel.New(e, topo, mem)
	server := &stubPort{mac: eth.MACFromInt(1)}
	client := &stubPort{mac: eth.MACFromInt(2)}
	w := eth.NewWire(e, "w", server, client)
	return &rig{eng: e, nic: n, wire: w, server: server, client: client, fab: fab, k: k}
}

func (r *rig) targets() Targets {
	return Targets{
		Engine: r.eng, NIC: r.nic,
		Wire: r.wire, ServerPort: r.server, ClientPort: r.client,
		Fabric: r.fab, Kernel: r.k,
	}
}

// send puts one client->server (or server->client) frame on the wire.
func (r *rig) send(d Dir, seq uint64) {
	f := &eth.Frame{Payload: 100, Packets: 1, Seq: seq}
	if d == ClientToServer {
		f.Src, f.Dst = r.client.mac, r.server.mac
		r.wire.Send(r.client, f)
		return
	}
	f.Src, f.Dst = r.server.mac, r.client.mac
	r.wire.Send(r.server, f)
}

func TestValidateRejectsMalformedEvents(t *testing.T) {
	r := newRig(t)
	ms := time.Millisecond
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative offset", Event{At: -ms, Kind: LinkDown}, "negative offset"},
		{"unknown pf", Event{Kind: LinkDown, PF: 9}, "no PF 9"},
		{"flap without duration", Event{Kind: LinkFlap}, "positive duration"},
		{"loss prob above one", Event{Kind: Loss, Prob: 1.5, Duration: ms}, "out of [0,1]"},
		{"loss prob negative", Event{Kind: Loss, Prob: -0.1, Duration: ms}, "out of [0,1]"},
		{"loss without duration", Event{Kind: Loss, Prob: 0.5}, "positive duration"},
		{"burst without duration", Event{Kind: Burst}, "positive duration"},
		{"burst prob above one", Event{Kind: Burst, Prob: 2, Duration: ms}, "out of [0,1]"},
		{"corrupt without duration", Event{Kind: Corrupt, Prob: 0.5}, "positive duration"},
		{"degrade self link", Event{Kind: Degrade, From: 1, To: 1, BWFactor: 0.5, LatFactor: 1, Duration: ms}, "not a fabric link"},
		{"degrade outside fabric", Event{Kind: Degrade, From: 0, To: 7, BWFactor: 0.5, LatFactor: 1, Duration: ms}, "outside"},
		{"degrade zero factor", Event{Kind: Degrade, From: 0, To: 1, BWFactor: 0, LatFactor: 1, Duration: ms}, "positive"},
		{"degrade without duration", Event{Kind: Degrade, From: 0, To: 1, BWFactor: 0.5, LatFactor: 2}, "positive duration"},
		{"stall unknown core", Event{Kind: Stall, Core: 999, Duration: ms}, "no core"},
		{"stall without duration", Event{Kind: Stall, Core: 0}, "positive duration"},
		{"unknown kind", Event{Kind: Kind(99)}, "unknown kind"},
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

func TestValidateRejectsMissingTargets(t *testing.T) {
	eng := sim.NewEngine()
	ms := time.Millisecond
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"link without nic", Event{Kind: LinkDown}, "no NIC target"},
		{"loss without wire", Event{Kind: Loss, Prob: 0.5, Duration: ms}, "no wire target"},
		{"burst without wire", Event{Kind: Burst, Duration: ms}, "no wire target"},
		{"degrade without fabric", Event{Kind: Degrade, From: 0, To: 1, BWFactor: 0.5, LatFactor: 1, Duration: ms}, "no fabric target"},
		{"stall without kernel", Event{Kind: Stall, Core: 0, Duration: ms}, "no kernel target"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Arm(&Plan{Events: []Event{c.ev}}, Targets{Engine: eng})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
	if _, err := Arm(&Plan{}, Targets{}); err == nil {
		t.Fatal("Arm without an engine must fail")
	}
}

func TestEmptyPlanArmsNothing(t *testing.T) {
	r := newRig(t)
	inj, err := Arm(&Plan{Seed: 7}, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	r.send(ClientToServer, 1)
	r.eng.RunFor(time.Millisecond)
	if drops := inj.lossDrops + inj.burstDrops + inj.corruptDrops; inj.eventsFired != 0 || drops != 0 {
		t.Fatalf("empty plan fired events: %d fired, %d drops", inj.eventsFired, drops)
	}
	// No direction was targeted, so no filter state was built: the wire
	// keeps its nil-filter fast path.
	if inj.c2s != nil || inj.s2c != nil {
		t.Fatal("empty plan must not install wire filters")
	}
	if len(r.server.got) != 1 {
		t.Fatalf("frame lost without any armed fault: got %d", len(r.server.got))
	}
}

func TestLinkFlapDrivesTransitions(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: time.Millisecond, Kind: LinkFlap, PF: 0, Duration: 2 * time.Millisecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	r.eng.RunFor(2 * time.Millisecond) // t=2ms: inside the outage
	if r.nic.PF(0).LinkUp() {
		t.Fatal("PF0 link should be down mid-flap")
	}
	if r.nic.PF(1).LinkUp() != true {
		t.Fatal("PF1 must be untouched")
	}
	if inj.linkTransitions != 1 {
		t.Fatalf("transitions = %d, want 1", inj.linkTransitions)
	}
	r.eng.RunFor(2 * time.Millisecond) // t=4ms: restored
	if !r.nic.PF(0).LinkUp() {
		t.Fatal("PF0 link should be restored after the flap")
	}
	if inj.linkTransitions != 2 || inj.eventsFired != 2 {
		t.Fatalf("transitions = %d, fired = %d, want 2/2", inj.linkTransitions, inj.eventsFired)
	}
}

func TestLinkDownThenUpEvents(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 0, Kind: LinkDown, PF: 1},
		{At: time.Millisecond, Kind: LinkUp, PF: 1},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	r.eng.RunFor(500 * time.Microsecond)
	if r.nic.PF(1).LinkUp() {
		t.Fatal("PF1 should be down")
	}
	r.eng.RunFor(time.Millisecond)
	if !r.nic.PF(1).LinkUp() {
		t.Fatal("PF1 should be back up")
	}
	if inj.linkTransitions != 2 {
		t.Fatalf("transitions = %d, want 2", inj.linkTransitions)
	}
}

// lossRun drives 300 spaced frames through a 30% loss window covering
// the first 200 and returns the delivered sequence numbers.
func lossRun(t *testing.T) ([]uint64, uint64) {
	t.Helper()
	r := newRig(t)
	plan := &Plan{Seed: 99, Events: []Event{
		{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.3, Duration: 200 * time.Microsecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	for i := 0; i < 300; i++ {
		seq := uint64(i + 1)
		r.eng.After(time.Duration(i)*time.Microsecond, func() { r.send(ClientToServer, seq) })
	}
	r.eng.RunFor(time.Millisecond)
	var delivered []uint64
	for _, f := range r.server.got {
		delivered = append(delivered, f.Seq)
	}
	return delivered, inj.lossDrops
}

func TestLossIsSeededAndDeterministic(t *testing.T) {
	gotA, dropsA := lossRun(t)
	gotB, dropsB := lossRun(t)
	if dropsA == 0 || dropsA >= 200 {
		t.Fatalf("drops = %d, want some but not all of the windowed frames", dropsA)
	}
	if dropsA != dropsB || !reflect.DeepEqual(gotA, gotB) {
		t.Fatalf("same seed produced different runs: %d/%d drops, %d/%d delivered",
			dropsA, dropsB, len(gotA), len(gotB))
	}
	// Frames after the window must all survive.
	var after int
	for _, seq := range gotA {
		if seq > 200 {
			after++
		}
	}
	if after != 100 {
		t.Fatalf("post-window frames delivered = %d, want all 100", after)
	}
}

func TestBurstDropsEverythingInWindow(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 100 * time.Microsecond, Kind: Burst, Dir: ServerToClient, Duration: 100 * time.Microsecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	for _, at := range []time.Duration{50 * time.Microsecond, 150 * time.Microsecond, 250 * time.Microsecond} {
		at := at
		r.eng.After(at, func() { r.send(ServerToClient, uint64(at)) })
	}
	r.eng.RunFor(time.Millisecond)
	if len(r.client.got) != 2 {
		t.Fatalf("delivered = %d, want 2 (outside the burst)", len(r.client.got))
	}
	if total := inj.lossDrops + inj.burstDrops + inj.corruptDrops; inj.burstDrops != 1 || total != 1 {
		t.Fatalf("burst drops = %d, total = %d, want 1/1", inj.burstDrops, total)
	}
}

func TestCorruptionCountedSeparatelyFromLoss(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 0, Kind: Corrupt, Dir: ClientToServer, Prob: 1, Duration: 100 * time.Microsecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	for i := 0; i < 10; i++ {
		r.eng.After(time.Duration(i)*time.Microsecond, func() { r.send(ClientToServer, 1) })
	}
	r.eng.RunFor(time.Millisecond)
	if len(r.server.got) != 0 {
		t.Fatalf("delivered = %d, want 0 at corruption prob 1", len(r.server.got))
	}
	if inj.corruptDrops != 10 || inj.lossDrops != 0 {
		t.Fatalf("corrupt = %d, loss = %d, want 10/0", inj.corruptDrops, inj.lossDrops)
	}
}

func TestFilterInstalledOnlyForTargetedDirection(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 0, Kind: Burst, Dir: ClientToServer, Duration: time.Millisecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	r.eng.After(100*time.Microsecond, func() { r.send(ServerToClient, 1) })
	r.eng.RunFor(time.Millisecond)
	if inj.s2c != nil {
		t.Fatal("untargeted direction grew filter state")
	}
	if len(r.client.got) != 1 || inj.lossDrops+inj.burstDrops+inj.corruptDrops != 0 {
		t.Fatal("untargeted direction lost a frame")
	}
}

func TestDegradeInflatesLinkAndRestores(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: time.Millisecond, Kind: Degrade, From: 0, To: 1, BWFactor: 0.5, LatFactor: 2, Duration: time.Millisecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	healthy := r.fab.Latency(0, 1, 4096)
	r.eng.RunFor(1500 * time.Microsecond) // mid-window
	if got := r.fab.Latency(0, 1, 4096); got <= healthy {
		t.Fatalf("degraded latency %v not above healthy %v", got, healthy)
	}
	r.eng.RunFor(time.Millisecond) // past the window
	if got := r.fab.Latency(0, 1, 4096); got != healthy {
		t.Fatalf("restored latency %v, want healthy %v", got, healthy)
	}
	if inj.degrades != 1 || inj.eventsFired != 1 {
		t.Fatalf("degrades = %d, fired = %d, want 1/1", inj.degrades, inj.eventsFired)
	}
}

func TestStallDelaysQueuedWork(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 0, Kind: Stall, Core: 0, Duration: time.Millisecond},
	}}
	inj, err := Arm(plan, r.targets())
	if err != nil {
		t.Fatalf("Arm: %v", err)
	}
	var doneAt sim.Time
	r.eng.After(100*time.Microsecond, func() {
		r.k.Core(0).SubmitFixed(time.Microsecond, func() { doneAt = r.eng.Now() })
	})
	r.eng.RunFor(5 * time.Millisecond)
	if doneAt == 0 {
		t.Fatal("probe never ran")
	}
	if doneAt < sim.Time(time.Millisecond) {
		t.Fatalf("probe completed at %v, should have waited behind the 1ms stall", doneAt)
	}
	if inj.stalls != 1 {
		t.Fatalf("stalls = %d, want 1", inj.stalls)
	}
}

// TestValidateScheduleRejectsRacingWindows is the structural-schedule
// table: windowed events that fight over one piece of state (the bug a
// generated plan can hit that a hand-wired one never did — the first
// window's end event disarms state the second window still owns) must
// be rejected, while adjacent or independent windows must pass.
func TestValidateScheduleRejectsRacingWindows(t *testing.T) {
	ms := time.Millisecond
	reject := []struct {
		name string
		evs  []Event
		want string
	}{
		{"overlapping loss same direction", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
			{At: ms, Kind: Loss, Dir: ClientToServer, Prob: 0.2, Duration: 2 * ms},
		}, "overlapping loss windows on direction 0"},
		{"overlapping burst same direction", []Event{
			{At: 0, Kind: Burst, Dir: ServerToClient, Duration: 2 * ms},
			{At: ms, Kind: Burst, Dir: ServerToClient, Duration: 2 * ms},
		}, "overlapping burst windows"},
		{"overlapping corrupt same direction", []Event{
			{At: 0, Kind: Corrupt, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
			{At: ms, Kind: Corrupt, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
		}, "overlapping corrupt windows"},
		{"overlapping degrade same link", []Event{
			{At: 0, Kind: Degrade, From: 0, To: 1, BWFactor: 0.5, LatFactor: 2, Duration: 2 * ms},
			{At: ms, Kind: Degrade, From: 0, To: 1, BWFactor: 0.7, LatFactor: 2, Duration: 2 * ms},
		}, "overlapping degrade windows on link 0->1"},
		{"overlapping flap same pf", []Event{
			{At: 0, Kind: LinkFlap, PF: 0, Duration: 2 * ms},
			{At: ms, Kind: LinkFlap, PF: 0, Duration: 2 * ms},
		}, "overlapping link-flap windows on PF 0"},
		{"containment counts as overlap", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 10 * ms},
			{At: 2 * ms, Kind: Loss, Dir: ClientToServer, Prob: 0.2, Duration: ms},
		}, "overlapping loss windows"},
		{"link-up inside flap window", []Event{
			{At: 0, Kind: LinkFlap, PF: 0, Duration: 2 * ms},
			{At: ms, Kind: LinkUp, PF: 0},
		}, "fires inside"},
		{"link-down inside flap window", []Event{
			{At: 0, Kind: LinkFlap, PF: 1, Duration: 2 * ms},
			{At: ms, Kind: LinkDown, PF: 1},
		}, "fires inside"},
		{"window end overflows", []Event{
			{At: math.MaxInt64 - ms, Kind: Burst, Dir: ClientToServer, Duration: 2 * ms},
		}, "ends past the largest offset"},
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
		{"adjacent loss windows same direction", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: ms},
			{At: ms, Kind: Loss, Dir: ClientToServer, Prob: 0.2, Duration: ms},
		}},
		{"overlapping loss different directions", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
			{At: ms, Kind: Loss, Dir: ServerToClient, Prob: 0.2, Duration: 2 * ms},
		}},
		{"overlapping loss and corrupt same direction", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
			{At: ms, Kind: Corrupt, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
		}},
		{"overlapping flaps different pfs", []Event{
			{At: 0, Kind: LinkFlap, PF: 0, Duration: 2 * ms},
			{At: ms, Kind: LinkFlap, PF: 1, Duration: 2 * ms},
		}},
		{"overlapping degrades different links", []Event{
			{At: 0, Kind: Degrade, From: 0, To: 1, BWFactor: 0.5, LatFactor: 2, Duration: 2 * ms},
			{At: ms, Kind: Degrade, From: 1, To: 0, BWFactor: 0.5, LatFactor: 2, Duration: 2 * ms},
		}},
		{"link-up at flap window edge", []Event{
			{At: 0, Kind: LinkFlap, PF: 0, Duration: 2 * ms},
			{At: 2 * ms, Kind: LinkUp, PF: 0},
		}},
		{"stall overlapping everything", []Event{
			{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 2 * ms},
			{At: 0, Kind: Stall, Core: 0, Duration: 2 * ms},
			{At: ms, Kind: Stall, Core: 1, Duration: 2 * ms},
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

// TestArmRejectsOverlappingWindows confirms the structural check is on
// the Arm path, not only available standalone.
func TestArmRejectsOverlappingWindows(t *testing.T) {
	r := newRig(t)
	plan := &Plan{Events: []Event{
		{At: 0, Kind: Loss, Dir: ClientToServer, Prob: 0.1, Duration: 2 * time.Millisecond},
		{At: time.Millisecond, Kind: Loss, Dir: ClientToServer, Prob: 0.2, Duration: 2 * time.Millisecond},
	}}
	if _, err := Arm(plan, r.targets()); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("Arm err = %v, want overlapping-window rejection", err)
	}
}

// scheduleEventBytes is the size of one fuzz-coded event: kind, target,
// then At and Duration as little-endian int64s.
const scheduleEventBytes = 18

// decodeSchedule turns fuzz bytes into a plan, one event per
// scheduleEventBytes, dropping a trailing partial event. Kinds span
// every kind plus one unknown. The target byte's bits pick the PF,
// direction, link, queue, core and node from small ranges, so events
// often share state.
func decodeSchedule(data []byte) *Plan {
	p := &Plan{}
	for ; len(data) >= scheduleEventBytes; data = data[scheduleEventBytes:] {
		tg := int(data[1])
		p.Events = append(p.Events, Event{
			Kind:     Kind(data[0] % byte(PollerStall+2)),
			PF:       tg & 3,
			Dir:      Dir(tg & 1),
			From:     topology.NodeID(tg & 1),
			To:       topology.NodeID(tg >> 1 & 1),
			Core:     topology.CoreID(tg),
			Queue:    tg >> 2 & 3,
			Node:     topology.NodeID(tg >> 4 & 1),
			At:       time.Duration(binary.LittleEndian.Uint64(data[2:])),
			Duration: time.Duration(binary.LittleEndian.Uint64(data[10:])),
		})
	}
	return p
}

// encodeEvent is decodeSchedule's inverse for one event, for seeds.
func encodeEvent(k Kind, target byte, at, dur time.Duration) []byte {
	b := []byte{byte(k), target}
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	return binary.LittleEndian.AppendUint64(b, uint64(dur))
}

// sameState reports whether two windowed events arm and disarm the same
// piece of fault state.
func sameState(a, b Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Loss, Burst, Corrupt:
		return a.Dir == b.Dir
	case Degrade:
		return a.From == b.From && a.To == b.To
	case LinkFlap:
		return a.PF == b.PF
	case QueueStall:
		return a.PF == b.PF && a.Queue == b.Queue
	case PollerStall:
		return a.Node == b.Node
	}
	return false
}

// scheduleConflict is the brute-force reference for validateSchedule.
// It compares every pair of events with exact (big.Int) window ends and
// names the first conflict, or returns "" for a sound schedule: two
// windows of positive duration on one state that overlap, or a link-up
// or link-down strictly inside a flap window on the same PF.
func scheduleConflict(evs []Event) string {
	at := func(ev Event) *big.Int { return big.NewInt(int64(ev.At)) }
	end := func(ev Event) *big.Int { return new(big.Int).Add(at(ev), big.NewInt(int64(ev.Duration))) }
	for i, a := range evs {
		for j, b := range evs {
			if i < j && a.Duration > 0 && b.Duration > 0 && sameState(a, b) &&
				at(a).Cmp(end(b)) < 0 && at(b).Cmp(end(a)) < 0 {
				return fmt.Sprintf("events %d and %d overlap", i, j)
			}
			if (a.Kind == LinkDown || a.Kind == LinkUp) && b.Kind == LinkFlap && b.Duration > 0 &&
				a.PF == b.PF && at(a).Cmp(at(b)) > 0 && at(a).Cmp(end(b)) < 0 {
				return fmt.Sprintf("event %d fires inside event %d's flap", i, j)
			}
		}
	}
	return ""
}

// FuzzValidateSchedule decodes fuzz bytes into a plan: validateSchedule
// must never panic, and a plan it accepts must pass scheduleConflict.
func FuzzValidateSchedule(f *testing.F) {
	ms := time.Millisecond
	// The chaos scenario's five events over a 1 s timeline: a PF 0 flap,
	// client-to-server loss, a server-to-client burst, a core 0 stall
	// and a 0->1 degradation.
	f.Add(slices.Concat(
		encodeEvent(LinkFlap, 0, 300*ms, 200*ms),
		encodeEvent(Loss, 0, 550*ms, 100*ms),
		encodeEvent(Burst, 1, 580*ms, 20*ms),
		encodeEvent(Stall, 0, 620*ms, ms),
		encodeEvent(Degrade, 2, 680*ms, 100*ms),
	))
	// Two overlapping loss windows on one direction.
	f.Add(slices.Concat(encodeEvent(Loss, 0, 0, 2*ms), encodeEvent(Loss, 0, ms, 2*ms)))
	// A link-down inside a flap of the same PF.
	f.Add(slices.Concat(encodeEvent(LinkFlap, 1, 0, 2*ms), encodeEvent(LinkDown, 1, ms, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference is quadratic; 64 events is plenty of pairs.
		if len(data) > 64*scheduleEventBytes {
			data = data[:64*scheduleEventBytes]
		}
		p := decodeSchedule(data)
		if err := p.validateSchedule(); err != nil {
			return
		}
		if c := scheduleConflict(p.Events); c != "" {
			t.Fatalf("validateSchedule accepted a plan where %s: %+v", c, p.Events)
		}
	})
}
