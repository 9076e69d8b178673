package driver

import (
	"ioctopus/internal/eth"
	"ioctopus/internal/kernel"
	"ioctopus/internal/netstack"
	"ioctopus/internal/topology"
)

// Bond is the link-aggregation baseline of §2.5: a team/bonding device
// over multiple lower netdevices that hashes each flow to a member.
// It demonstrates why aggregation does not solve NUDMA: the member
// carrying a flow is fixed by the hash — the host has no way to move a
// flow to the NIC local to wherever its thread runs, and the switch
// picks the inbound member by its own hash.
type Bond struct {
	name   string
	lowers []netstack.NetDevice
}

var _ netstack.NetDevice = (*Bond)(nil)

// NewBond aggregates lower devices.
func NewBond(name string, lowers ...netstack.NetDevice) *Bond {
	if len(lowers) == 0 {
		panic("driver: bond needs members")
	}
	return &Bond{name: name, lowers: lowers}
}

// Name implements netstack.NetDevice.
func (d *Bond) Name() string { return d.name }

// HWAddr implements netstack.NetDevice: bonds adopt the first member's
// address.
func (d *Bond) HWAddr() eth.MAC { return d.lowers[0].HWAddr() }

// member returns the link a flow hashes to.
func (d *Bond) member(ft eth.FiveTuple) netstack.NetDevice {
	return d.lowers[int(ft.Hash())%len(d.lowers)]
}

// TxQueueForCore implements netstack.NetDevice.
func (d *Bond) TxQueueForCore(c topology.CoreID) int {
	return d.lowers[0].TxQueueForCore(c)
}

// TxInFlight implements netstack.NetDevice.
func (d *Bond) TxInFlight(q int) int {
	n := 0
	for _, l := range d.lowers {
		n += l.TxInFlight(q)
	}
	return n
}

// Xmit implements netstack.NetDevice: the flow's hash — not the
// sender's location — picks the member.
func (d *Bond) Xmit(t *kernel.Thread, pkt *netstack.Packet, txq int, then func()) {
	d.member(pkt.Flow).Xmit(t, pkt, txq, then)
}

// SteerFlow implements netstack.NetDevice: the best a bond can do is
// steer within whichever member the flow hashed to.
func (d *Bond) SteerFlow(ft eth.FiveTuple, core topology.CoreID) {
	d.member(ft.Reverse()).SteerFlow(ft, core)
}
