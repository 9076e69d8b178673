package nvme

import (
	"time"

	"ioctopus/internal/kernel"
	"ioctopus/internal/topology"
)

// Policy selects how a multi-port drive is used.
type Policy int

// Policies.
const (
	// SinglePath is the standard driver: all I/O through port 0, as a
	// stock multipath setup pinned to one path behaves.
	SinglePath Policy = iota
	// OctoSSD applies the IOctopus principle to storage: each request
	// is routed through the port local to its data buffer's node, so no
	// data DMA crosses the interconnect (§5.4 future work, built here).
	OctoSSD
)

// Host-side driver costs.
const (
	// doorbellCPU is the submission doorbell cost.
	doorbellCPU time.Duration = 60 * time.Nanosecond
	// perIOCPU is block-layer per-request work.
	perIOCPU time.Duration = 1200 * time.Nanosecond
	// reapBudget bounds completions per interrupt.
	reapBudget int = 64
)

// Driver is the host NVMe driver for one controller.
type Driver struct {
	k      *kernel.Kernel
	ctrl   *Controller
	policy Policy

	// One queue pair per (port, submitting node): rings homed on the
	// submitter's node, interrupts to it.
	qps map[[2]int]*QueuePair
}

// NewDriver binds a driver to a controller.
func NewDriver(k *kernel.Kernel, ctrl *Controller, policy Policy) *Driver {
	return &Driver{
		k:      k,
		ctrl:   ctrl,
		policy: policy,
		qps:    make(map[[2]int]*QueuePair),
	}
}

// pickPort routes a request per the policy.
func (d *Driver) pickPort(req *Request) *Port {
	if d.policy == OctoSSD {
		for _, p := range d.ctrl.ports {
			if p.Node() == req.Buf.Home() {
				return p
			}
		}
	}
	return d.ctrl.ports[0]
}

// qpFor returns (creating on demand) the queue pair for a port and
// submitting node.
func (d *Driver) qpFor(p *Port, node topology.NodeID) *QueuePair {
	key := [2]int{p.index, int(node)}
	if qp, ok := d.qps[key]; ok {
		return qp
	}
	// Completion interrupts reap on the first core of the node.
	core := d.k.Topology().CoresOn(node)[0].ID
	var qp *QueuePair
	line := d.k.Core(core).NewIRQLine(func() time.Duration { return d.reap(qp, node) })
	qp = p.NewQueuePair(node, node, line.Raise)
	d.qps[key] = qp
	return qp
}

// reap processes completions: per-CQE host reads plus callbacks.
func (d *Driver) reap(qp *QueuePair, node topology.NodeID) time.Duration {
	var cost time.Duration
	for _, req := range qp.Reap(reapBudget) {
		cost += qp.CQ().HostRead(node, 1)
		cost += perIOCPU / 2
		if req.OnComplete != nil {
			req.OnComplete(req)
		}
	}
	qp.NapiComplete()
	return cost
}

// SubmitAsync issues a request from event context (async I/O engines
// that batch submissions); CPU costs are charged to the given core.
func (d *Driver) SubmitAsync(core topology.CoreID, req *Request) {
	req.bind()
	req.drv = d
	req.node = d.k.Topology().NodeOf(core)
	req.qp = d.qpFor(d.pickPort(req), req.node)
	d.k.Core(core).Submit(req.submitRun, req.submitDone)
}

// submitCost is the host side of a submission: block-layer work, the
// SQE write and the doorbell.
func (r *Request) submitCost() time.Duration {
	cost := perIOCPU / 2
	cost += r.qp.SQ().HostWrite(r.node, 1)
	cost += doorbellCPU
	return cost
}

// ringDoorbell posts the doorbell write once the submission work is
// done; the drive sees it after the write's flight time.
func (r *Request) ringDoorbell() {
	flight := r.qp.port.ep.MMIOWrite(r.node)
	r.drv.k.Engine().After(flight, r.doorbellDone)
}

// arrive starts the hardware side when the doorbell reaches the drive.
func (r *Request) arrive() { r.qp.Submit(r) }
