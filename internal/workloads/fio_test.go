package workloads

import (
	"testing"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/metrics"
	"ioctopus/internal/nvme"
	"ioctopus/internal/topology"
)

func fioCores() []topology.CoreID {
	return []topology.CoreID{0, 1, 2, 3, 4, 5, 6, 7} // node 0, remote from SSDs
}

func runFio(t *testing.T, streams int, policy nvme.Policy, dualPort bool) (fioGBs, streamGBs float64) {
	t.Helper()
	rig := core.NewStorageRig(policy, dualPort)
	f := StartFio(rig, fioCores())
	var ant *Antagonist
	if streams > 0 {
		ant = StartAntagonistOn(rig.Host, streams, 1, 0,
			AntagonistConfig{DemandPerInstance: 10e9})
	}
	rig.Run(50 * time.Millisecond)
	f.MeasureStart()
	if ant != nil {
		ant.MeasureStart()
	}
	rig.Run(100 * time.Millisecond)
	fioGBs = metrics.GBs(float64(f.Bytes()), 100*time.Millisecond)
	if ant != nil {
		streamGBs = ant.WindowBytes() / 0.1 / 1e9
	}
	rig.Drain()
	return
}

func TestFioSoloSaturatesDrives(t *testing.T) {
	solo, _ := runFio(t, 0, nvme.SinglePath, false)
	if solo < 10 || solo > 14 {
		t.Fatalf("fio solo = %.2f GB/s, want ~12.8 (4 x 3.2)", solo)
	}
}

func TestFioDegradesUnderUPISaturation(t *testing.T) {
	// Figure 15: remote fio degrades by up to ~24% once STREAM
	// saturates the interconnect; light STREAM load leaves it alone.
	solo, _ := runFio(t, 0, nvme.SinglePath, false)
	light, _ := runFio(t, 2, nvme.SinglePath, false)
	heavy, streamRate := runFio(t, 10, nvme.SinglePath, false)
	if light/solo < 0.95 {
		t.Fatalf("light STREAM load should not hurt fio: %.2f -> %.2f", solo, light)
	}
	norm := heavy / solo
	if norm < 0.6 || norm > 0.9 {
		t.Fatalf("heavy-STREAM fio = %.2f of solo, want ~0.76", norm)
	}
	if streamRate == 0 {
		t.Fatal("antagonist idle")
	}
}

func TestOctoSSDAvoidsInterconnect(t *testing.T) {
	// The OctoSSD extension: with dual-port drives and local-port
	// routing, fio's data never crosses UPI, so saturating STREAM
	// leaves it untouched.
	heavySingle, _ := runFio(t, 10, nvme.SinglePath, true)
	heavyOcto, _ := runFio(t, 10, nvme.OctoSSD, true)
	if heavyOcto <= heavySingle*1.05 {
		t.Fatalf("OctoSSD should beat single-path under UPI load: %.2f vs %.2f GB/s", heavyOcto, heavySingle)
	}
	solo, _ := runFio(t, 0, nvme.OctoSSD, true)
	if heavyOcto/solo < 0.9 {
		t.Fatalf("OctoSSD under STREAM = %.2f of solo, want ~1.0", heavyOcto/solo)
	}
}
