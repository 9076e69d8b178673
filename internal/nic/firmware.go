package nic

import (
	"ioctopus/internal/eth"
)

// Firmware is the device's steering brain: it decides which PF and
// queue an arriving frame lands on and exposes the host-facing flow
// programming API. The two implementations are the point of the paper:
// StandardFirmware decomposes the device into per-PF logical NICs,
// OctoFirmware unifies the PFs behind one MAC with 5-tuple steering.
type Firmware interface {
	// SteerRx maps an arriving frame to (pf, rxQueue).
	SteerRx(f *eth.Frame) (pf, queue int)
	// ProgramFlow installs or updates a flow-steering rule. Under
	// standard firmware pf selects which per-PF ARFS table is written
	// and arriving traffic reaches that table only if the MPFS (MAC
	// steering) already chose that PF; under octo firmware the rule is
	// the IOctoRFS mapping itself.
	ProgramFlow(ft eth.FiveTuple, pf, queue int)
	// RemoveFlow deletes a rule (driver rule expiry).
	RemoveFlow(ft eth.FiveTuple)
	// FlowCount returns installed rule count.
	FlowCount() int
	// SingleMAC reports whether the device presents one MAC for all
	// PFs (octo) or one MAC per PF (standard).
	SingleMAC() bool
	// SGEnabled reports whether IOctoSG fragment steering is active.
	SGEnabled() bool
	// Reset wipes the steering tables — a firmware-level fault, not an
	// API the host calls. Installed flow rules vanish and SteerRx
	// degrades to its fallback (RSS / MAC-only) until the host
	// reprograms them; link state, queues and DMA state survive.
	Reset()
}

// StandardFirmware is the shipping multi-PF firmware: the integrated
// multi-PF Ethernet switch (MPFS) steers by destination MAC, so each PF
// is a separate logical NIC, and each PF has a private ARFS table
// mapping flows to its queues (§2.3, §4.1).
type StandardFirmware struct {
	nic  *NIC
	arfs []map[eth.FiveTuple]int // per-PF flow -> rx queue
}

// NewStandardFirmware builds the default firmware for the NIC.
func NewStandardFirmware(n *NIC) *StandardFirmware {
	fw := &StandardFirmware{nic: n}
	for range n.pfs {
		fw.arfs = append(fw.arfs, make(map[eth.FiveTuple]int))
	}
	return fw
}

// SingleMAC implements Firmware: each PF has its own MAC.
func (fw *StandardFirmware) SingleMAC() bool { return false }

// SGEnabled implements Firmware: no fragment steering.
func (fw *StandardFirmware) SGEnabled() bool { return false }

// SteerRx implements Firmware: MPFS by destination MAC, then the PF's
// ARFS table (RSS hash fallback).
func (fw *StandardFirmware) SteerRx(f *eth.Frame) (int, int) {
	pf := -1
	for i, p := range fw.nic.pfs {
		if p.mac == f.Dst {
			pf = i
			break
		}
	}
	if pf < 0 {
		// Unknown MAC: the MPFS floods to PF0 (covers broadcast and the
		// port's primary address).
		pf = 0
	}
	p := fw.nic.pfs[pf]
	if len(p.rxQueues) == 0 {
		return pf, -1
	}
	if q, ok := fw.arfs[pf][f.Flow]; ok && q < len(p.rxQueues) {
		return pf, q
	}
	// RSS fallback over the PF's queues.
	return pf, int(f.Flow.Hash()) % len(p.rxQueues)
}

// ProgramFlow implements Firmware: writes the PF-private ARFS table.
func (fw *StandardFirmware) ProgramFlow(ft eth.FiveTuple, pf, queue int) {
	if pf < 0 || pf >= len(fw.arfs) {
		return
	}
	fw.arfs[pf][ft] = queue
}

// RemoveFlow implements Firmware.
func (fw *StandardFirmware) RemoveFlow(ft eth.FiveTuple) {
	for _, t := range fw.arfs {
		delete(t, ft)
	}
}

// FlowCount implements Firmware.
func (fw *StandardFirmware) FlowCount() int {
	n := 0
	for _, t := range fw.arfs {
		n += len(t)
	}
	return n
}

// Reset implements Firmware: every PF's ARFS table is wiped; the MPFS
// MAC steering is burned-in switch configuration and survives.
func (fw *StandardFirmware) Reset() {
	for i := range fw.arfs {
		fw.arfs[i] = make(map[eth.FiveTuple]int)
	}
}

// pfQueue is an IOctoRFS table entry.
type pfQueue struct {
	pf, queue int
}

// OctoFirmware is the IOctopus firmware (§4.1): the MPFS is modified to
// map packets to a PF by flow 5-tuple instead of MAC (IOctoRFS), the
// device exposes a single MAC and port, and — beyond the paper's
// prototype — IOctoSG can steer individual Tx fragments through the PF
// local to their memory.
type OctoFirmware struct {
	nic   *NIC
	table map[eth.FiveTuple]pfQueue
	sg    bool
}

// NewOctoFirmware builds the IOctopus firmware. enableSG turns on the
// IOctoSG extension (the paper's prototype left it unimplemented).
func NewOctoFirmware(n *NIC, enableSG bool) *OctoFirmware {
	return &OctoFirmware{nic: n, table: make(map[eth.FiveTuple]pfQueue), sg: enableSG}
}

// SingleMAC implements Firmware: the octoNIC is one logical entity.
func (fw *OctoFirmware) SingleMAC() bool { return true }

// SGEnabled implements Firmware.
func (fw *OctoFirmware) SGEnabled() bool { return fw.sg }

// SteerRx implements Firmware: IOctoRFS steering by 5-tuple, falling
// back to RSS across every queue of every PF for unprogrammed flows.
func (fw *OctoFirmware) SteerRx(f *eth.Frame) (int, int) {
	if e, ok := fw.table[f.Flow]; ok {
		return e.pf, e.queue
	}
	// RSS over link-up PFs only: the MPFS knows port state and does not
	// hash unprogrammed flows onto a dead limb. With every link up (the
	// only case outside fault injection) the arithmetic is unchanged.
	var total int
	for _, p := range fw.nic.pfs {
		if p.linkUp {
			total += len(p.rxQueues)
		}
	}
	if total == 0 {
		return 0, -1
	}
	idx := int(f.Flow.Hash()) % total
	for i, p := range fw.nic.pfs {
		if !p.linkUp {
			continue
		}
		if idx < len(p.rxQueues) {
			return i, idx
		}
		idx -= len(p.rxQueues)
	}
	return 0, -1
}

// ProgramFlow implements Firmware: the IOctoRFS update the octoNIC
// driver issues from the ARFS callback.
func (fw *OctoFirmware) ProgramFlow(ft eth.FiveTuple, pf, queue int) {
	fw.table[ft] = pfQueue{pf: pf, queue: queue}
}

// RemoveFlow implements Firmware.
func (fw *OctoFirmware) RemoveFlow(ft eth.FiveTuple) { delete(fw.table, ft) }

// FlowCount implements Firmware.
func (fw *OctoFirmware) FlowCount() int { return len(fw.table) }

// Reset implements Firmware: the IOctoRFS table is wiped and every flow
// degrades to the link-up RSS fallback until the driver replays its
// rule journal.
func (fw *OctoFirmware) Reset() { fw.table = make(map[eth.FiveTuple]pfQueue) }
