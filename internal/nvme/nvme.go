// Package nvme models NVMe storage (§5.4): controllers with submission/
// completion queues in host memory, a flash backend, and — following the
// dual-port PM1725a drives the paper customizes a backplane for —
// multiple PCIe physical functions per drive, one per socket.
//
// Two driver policies are provided: the standard single-path driver
// (all I/O through one port, NUDMA when the CPU is remote) and the
// OctoSSD policy the paper leaves as future work — the IOctopus
// principles applied to storage: route each I/O through the port local
// to its data buffer.
package nvme

import (
	"time"

	"ioctopus/internal/device"
	"ioctopus/internal/memsys"
	"ioctopus/internal/pcie"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Drive constants of the modelled PM1725a.
const (
	// flashReadBW / flashWriteBW are the drive's internal bandwidths.
	flashReadBW  float64 = 3.2e9
	flashWriteBW float64 = 2.0e9
	// flashReadLatency is the media access latency of every op, reads
	// and writes alike.
	flashReadLatency time.Duration = 90 * time.Microsecond
	// queueEntries sizes SQ/CQ rings; descBytes is the SQE/CQE size.
	queueEntries int   = 1024
	descBytes    int64 = 64
	// coalesceDelay moderates completion interrupts.
	coalesceDelay time.Duration = 4 * time.Microsecond
)

// Controller is one NVMe drive, possibly dual-ported.
type Controller struct {
	eng   *sim.Engine
	mem   *memsys.System
	ports []*Port
	// flash serializes media access: reads and writes share the media
	// with their respective bandwidths approximated by a shared pipe at
	// read bandwidth and a write-cost scale factor.
	flash *sim.Pipe
}

// Port is one PCIe physical function of the drive.
type Port struct {
	ctrl  *Controller
	index int
	ep    *pcie.Endpoint
}

// New builds a drive over its PCIe endpoints (one per port).
func New(e *sim.Engine, mem *memsys.System, name string, eps []*pcie.Endpoint) *Controller {
	if len(eps) == 0 {
		panic("nvme: need at least one port endpoint")
	}
	c := &Controller{
		eng: e,
		mem: mem,
		flash: sim.NewPipe(e, sim.PipeConfig{
			Name:        name + ":flash",
			BytesPerSec: flashReadBW,
			BaseLatency: flashReadLatency,
			// The FIFO itself is the media queue; utilization-based
			// latency inflation would double-count it.
			MaxInflation: 1.01,
		}),
	}
	for i, ep := range eps {
		c.ports = append(c.ports, &Port{ctrl: c, index: i, ep: ep})
	}
	return c
}

// Node returns the socket a port attaches to.
func (p *Port) Node() topology.NodeID { return p.ep.Node() }

// Request is one block I/O.
type Request struct {
	Write bool
	Bytes int64
	// Buf is the host data buffer (its home node is what NUDMA is
	// about).
	Buf *memsys.Buffer
	// OnComplete fires after the driver reaps the CQE. It may resubmit
	// the request.
	OnComplete func(*Request)

	qp   *QueuePair      // set by Submit (and SubmitAsync)
	drv  *Driver         // set by SubmitAsync
	node topology.NodeID // submitting node, set by SubmitAsync

	// The request's stages as method values, bound on its first
	// submission and kept: a request reused for later I/Os (one per
	// fio queue slot) runs them without allocating.
	submitRun    func() time.Duration // host: block layer, SQE, doorbell
	submitDone   func()               // the doorbell write leaves the core
	doorbellDone func()               // the drive sees the doorbell
	fetchDone    func()               // SQE fetched: media access
	mediaDone    func()               // media done: data DMA
	dataDone     func()               // data moved: CQE writeback
	cqeDone      func()               // CQE written: completion side
}

// bind prepares the request's stage callbacks once.
func (r *Request) bind() {
	if r.cqeDone != nil {
		return
	}
	r.submitRun = r.submitCost
	r.submitDone = r.ringDoorbell
	r.doorbellDone = r.arrive
	r.fetchDone = r.accessMedia
	r.mediaDone = r.moveData
	r.dataDone = r.writeCQE
	r.cqeDone = r.complete
}

// QueuePair is an SQ/CQ pair bound to one port. Its completion side
// (interrupt moderation and NAPI-style re-arm) is the embedded
// device.Completions, the same as a NIC queue's.
type QueuePair struct {
	device.Completions[*Request]

	port *Port
	sq   *device.Ring
	cq   *device.Ring
}

// NewQueuePair creates an SQ/CQ pair in memory homed on `home`, with
// completions interrupting toward irqNode.
func (p *Port) NewQueuePair(home topology.NodeID, irqNode topology.NodeID, onIRQ func()) *QueuePair {
	c := p.ctrl
	qp := &QueuePair{
		port: p,
		sq:   device.NewRing(c.mem, home, queueEntries, descBytes),
		cq:   device.NewRing(c.mem, home, queueEntries, descBytes),
	}
	qp.Init(c.eng, p.ep, irqNode, onIRQ, coalesceDelay, nil)
	return qp
}

// SQ returns the submission ring (the driver writes SQEs into it).
func (qp *QueuePair) SQ() *device.Ring { return qp.sq }

// CQ returns the completion ring.
func (qp *QueuePair) CQ() *device.Ring { return qp.cq }

// Submit starts the hardware side of a request: SQE fetch, media
// access, data DMA, CQE writeback, interrupt. The driver has already
// charged SQE write + doorbell CPU costs.
func (qp *QueuePair) Submit(req *Request) {
	req.bind()
	req.qp = qp
	qp.sq.DeviceRead(qp.port.ep, 1, req.fetchDone)
}

// accessMedia runs once the SQE is fetched. Writes occupy the media
// longer in proportion to the bandwidth ratio; reads and writes alike
// pay the flash pipe's base latency.
func (r *Request) accessMedia() {
	bytes := r.Bytes
	if r.Write {
		// Left to right at run time: a constant-folded read/write
		// ratio would round differently.
		bytes = int64(float64(bytes) * flashReadBW / flashWriteBW)
	}
	r.qp.port.ctrl.flash.Transfer(bytes, r.mediaDone)
}

// moveData runs the data DMA once the media access is done.
func (r *Request) moveData() {
	ep := r.qp.port.ep
	if r.Write {
		// Data moves host -> drive before the media write; the order is
		// folded: charge the DMA read now.
		ep.DMARead(r.Buf, r.Bytes, r.dataDone)
	} else {
		// Read: data moves drive -> host.
		ep.DMAWrite(r.Buf, r.Bytes, r.dataDone)
	}
}

// writeCQE writes the completion entry; the completion side takes it
// from there.
func (r *Request) writeCQE() {
	qp := r.qp
	qp.port.ep.DMAWrite(qp.cq.Buffer(), descBytes, r.cqeDone)
}

// complete hands the written CQE to the queue pair's completion side.
func (r *Request) complete() { r.qp.Complete(r) }
