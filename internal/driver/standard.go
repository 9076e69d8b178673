package driver

import (
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/netstack"
	"ioctopus/internal/nic"
	"ioctopus/internal/topology"
)

// Standard is the shipping vendor driver: it manages ONE physical
// function and presents it as an independent netdevice with its own MAC
// and IP. On a bifurcated NIC the OS therefore sees two NICs (Figure
// 5a/b) — the configuration whose NUDMA behaviour the paper measures as
// `local`/`remote`. It can only transmit through its own PF: if the
// sender's CPU is remote to it, every descriptor, doorbell and payload
// read crosses the interconnect.
type Standard struct {
	base
	pf *nic.PF

	// rules journals the ARFS programming this driver issued (flow →
	// queue), so a firmware table wipe can be repaired by replay. ARFS
	// has no expiry in this driver, matching the firmware side: the
	// per-PF tables only shrink via RemoveFlow, which nothing calls on
	// the standard path.
	rules map[eth.FiveTuple]int
}

var _ netstack.NetDevice = (*Standard)(nil)

// NewStandard builds the per-PF driver: a queue pair per core (on every
// core of the machine, as the testbed configures), rings and buffers
// homed on each queue's core, completions delivered by dp.
func NewStandard(k *kernel.Kernel, mem *memsys.System, pf *nic.PF, name string, params Params, dp Datapath) *Standard {
	d := &Standard{
		base:  base{k: k, name: name, params: params, datapath: dp},
		pf:    pf,
		rules: make(map[eth.FiveTuple]int),
	}
	d.buildQueues(mem, func(topology.CoreID) *nic.PF { return pf })
	// Firmware-reset recovery replays the journaled ARFS rules; there is
	// no watchdog stage-2 failover — a standard driver has no second PF
	// to move flows to.
	d.initFwRecovery(pf.NIC(), d.replayARFS)
	return d
}

// replayARFS reprograms every journaled ARFS rule into the wiped
// per-PF table, in deterministic 5-tuple order; returns rules replayed.
func (d *Standard) replayARFS() int {
	fw := d.pf.NIC().Firmware()
	if fw == nil {
		return 0
	}
	fts := make([]eth.FiveTuple, 0, len(d.rules))
	for ft := range d.rules {
		fts = append(fts, ft)
	}
	sortTuples(fts)
	for _, ft := range fts {
		fw.ProgramFlow(ft, d.pf.Index(), d.rules[ft])
	}
	return len(fts)
}

// HWAddr implements netstack.NetDevice: the PF's own MAC.
func (d *Standard) HWAddr() eth.MAC { return d.pf.MAC() }

// SteerFlow implements netstack.NetDevice: the ARFS path. The rule can
// only choose a queue within this PF; it cannot move the flow to
// another PCIe function, which is exactly why the standard architecture
// cannot escape NUDMA (§2.3).
func (d *Standard) SteerFlow(ft eth.FiveTuple, core topology.CoreID) {
	fw := d.pf.NIC().Firmware()
	if fw == nil {
		return
	}
	d.rules[ft] = int(core)
	fw.ProgramFlow(ft, d.pf.Index(), int(core))
}
