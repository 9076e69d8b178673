// Package pcie models the PCIe fabric joining I/O devices to the server:
// endpoints (physical functions), their link bandwidth by generation and
// lane count, DMA data movement into the memory system, MMIO doorbells
// and MSI-X interrupt delivery — each with the local/remote asymmetry
// that creates NUDMA.
//
// It also models the wiring options of §3.2: direct attach, PCIe
// bifurcation (one x16 card split into two x8 endpoints on different
// sockets — the octoNIC prototype's configuration), lane extenders,
// motherboard risers, and an onboard programmable PCIe switch (more
// flexible, but each transaction pays the switch hop).
package pcie

import (
	"fmt"
	"time"

	"ioctopus/internal/memsys"
	"ioctopus/internal/sim"
	"ioctopus/internal/topology"
)

// Gen is a PCIe generation.
type Gen int

// Supported generations.
const (
	Gen3 Gen = 3
	Gen4 Gen = 4
)

// perLaneBandwidth returns usable bytes/sec per lane (after encoding
// overhead: 128b/130b for Gen3+).
func perLaneBandwidth(g Gen) float64 {
	switch g {
	case Gen3:
		return 0.985e9 // 8 GT/s x 128/130 / 8 bits
	case Gen4:
		return 1.969e9
	default:
		panic(fmt.Sprintf("pcie: unsupported generation %d", g))
	}
}

// LinkBandwidth returns the usable one-direction bandwidth of a link.
func LinkBandwidth(g Gen, lanes int) float64 {
	if lanes <= 0 {
		panic(fmt.Sprintf("pcie: invalid lane count %d", lanes))
	}
	return perLaneBandwidth(g) * float64(lanes)
}

// Endpoint is one PCIe physical function's attachment point: a link to
// one socket's I/O controller.
type Endpoint struct {
	fabric *Fabric
	node   topology.NodeID

	toHost   *sim.Pipe // DMA writes (device -> memory)
	toDevice *sim.Pipe // DMA reads (memory -> device)

	// extraLatency is added to every transaction (programmable-switch
	// hop, extender retimers).
	extraLatency time.Duration

	// opFree recycles dmaOp records so steady-state DMA traffic does
	// not allocate a closure per transaction stage.
	opFree []*dmaOp

	dmaReadBytes  float64
	dmaWriteBytes float64
	mmioOps       uint64
	interrupts    uint64
}

// dmaOp is one in-flight DMA transaction's pooled state: the second
// stage of a DMAWrite (memory landing after uplink serialization) or a
// DMARead (downlink serialization after the memory supplies the data)
// runs from a cached method value instead of a per-call closure. Ops
// are recycled through the endpoint's free list the moment their stage
// fires, so the pool high-water mark is the endpoint's maximum
// transaction concurrency.
type dmaOp struct {
	ep       *Endpoint
	buf      *memsys.Buffer
	n        int64
	done     func()
	writeRun func() // cached op.runWrite
	readRun  func() // cached op.runRead
}

// getOp leases a transaction record from the endpoint's free list.
func (ep *Endpoint) getOp() *dmaOp {
	if n := len(ep.opFree); n > 0 {
		op := ep.opFree[n-1]
		ep.opFree[n-1] = nil
		ep.opFree = ep.opFree[:n-1]
		return op
	}
	op := &dmaOp{ep: ep}
	op.writeRun = op.runWrite
	op.readRun = op.runRead
	return op
}

// release returns the record to the free list.
func (op *dmaOp) release() {
	op.buf = nil
	op.done = nil
	op.ep.opFree = append(op.ep.opFree, op)
}

// runWrite is a DMA write's second stage: the last byte cleared the
// uplink; land it per the memory system's DDIO rules and fire done once
// the write is globally observable.
func (op *dmaOp) runWrite() {
	ep := op.ep
	lat := ep.fabric.mem.DeviceWrite(ep.node, op.buf, op.n) + ep.extraLatency
	done := op.done
	op.release()
	if done == nil {
		return
	}
	ep.fabric.eng.After(lat, done)
}

// runRead is a DMA read's second stage: the memory system supplied the
// data; serialize it on the downlink.
func (op *dmaOp) runRead() {
	ep := op.ep
	n, done := op.n, op.done
	op.release()
	ep.toDevice.Transfer(n, done)
}

// PCIe transaction costs, calibrated to the testbed's Gen3 fabric.
const (
	// linkLatency is the one-way latency of a PCIe link hop.
	linkLatency time.Duration = 250 * time.Nanosecond
	// mmioWriteLatency is the host-side cost of a posted doorbell write.
	mmioWriteLatency time.Duration = 100 * time.Nanosecond
	// interruptLatency is MSI-X delivery latency to a local core.
	interruptLatency time.Duration = 600 * time.Nanosecond
	// switchLatency is the extra hop cost behind a programmable switch.
	switchLatency time.Duration = 150 * time.Nanosecond
)

// Fabric is the server's PCIe fabric.
type Fabric struct {
	eng       *sim.Engine
	mem       *memsys.System
	endpoints []*Endpoint
}

// New builds a PCIe fabric over the memory system.
func New(e *sim.Engine, mem *memsys.System) *Fabric {
	return &Fabric{eng: e, mem: mem}
}

// NewEndpoint attaches a PF with the given link to a socket.
func (f *Fabric) NewEndpoint(name string, node topology.NodeID, g Gen, lanes int) *Endpoint {
	return f.newEndpoint(name, node, g, lanes, 0)
}

func (f *Fabric) newEndpoint(name string, node topology.NodeID, g Gen, lanes int, extra time.Duration) *Endpoint {
	bw := LinkBandwidth(g, lanes)
	ep := &Endpoint{
		fabric:       f,
		node:         node,
		extraLatency: extra,
		toHost: sim.NewPipe(f.eng, sim.PipeConfig{
			Name: name + ":up", BytesPerSec: bw, BaseLatency: linkLatency,
		}),
		toDevice: sim.NewPipe(f.eng, sim.PipeConfig{
			Name: name + ":down", BytesPerSec: bw, BaseLatency: linkLatency,
		}),
	}
	f.endpoints = append(f.endpoints, ep)
	return ep
}

// Endpoints returns all attached endpoints.
func (f *Fabric) Endpoints() []*Endpoint { return f.endpoints }

// Node returns the socket the endpoint is attached to.
func (ep *Endpoint) Node() topology.NodeID { return ep.node }

// DMAWrite moves n bytes from the device into the buffer (packet
// reception, completion writeback): the data serializes on the uplink,
// then lands per the memory system's DDIO rules. done fires when the
// write is globally observable.
func (ep *Endpoint) DMAWrite(b *memsys.Buffer, n int64, done func()) {
	ep.dmaWriteBytes += float64(n)
	op := ep.getOp()
	op.buf, op.n, op.done = b, n, done
	ep.toHost.Transfer(n, op.writeRun)
}

// DMARead moves n bytes from the buffer into the device (packet
// transmission, descriptor fetch): the memory system supplies the data
// (LLC or DRAM, local or remote), then it serializes on the downlink.
// done fires when the last byte reaches the device.
func (ep *Endpoint) DMARead(b *memsys.Buffer, n int64, done func()) {
	ep.dmaReadBytes += float64(n)
	lat := ep.fabric.mem.DeviceRead(ep.node, b, n) + ep.extraLatency
	op := ep.getOp()
	op.n, op.done = n, done
	ep.fabric.eng.After(lat, op.readRun)
}

// MMIOWrite models a core on fromNode posting a doorbell write to the
// endpoint and returns the latency until the device observes it. Posted
// writes don't stall the core for the full flight time; the caller
// decides how much of this to charge to CPU time.
func (ep *Endpoint) MMIOWrite(fromNode topology.NodeID) time.Duration {
	ep.mmioOps++
	lat := mmioWriteLatency + linkLatency + ep.extraLatency
	if fromNode != ep.node {
		lat += ep.fabric.mem.Fabric().Charge(fromNode, ep.node, 64)
	}
	return lat
}

// Interrupt delivers an MSI-X interrupt toward a core on toNode,
// scheduling handler after the delivery latency.
func (ep *Endpoint) Interrupt(toNode topology.NodeID, handler func()) {
	ep.interrupts++
	lat := interruptLatency + ep.extraLatency
	if toNode != ep.node {
		lat += ep.fabric.mem.Fabric().Charge(ep.node, toNode, 64)
	}
	ep.fabric.eng.After(lat, handler)
}

// DMAWriteBytes returns total bytes DMA-written through this endpoint.
func (ep *Endpoint) DMAWriteBytes() float64 { return ep.dmaWriteBytes }

// DMAReadBytes returns total bytes DMA-read through this endpoint.
func (ep *Endpoint) DMAReadBytes() float64 { return ep.dmaReadBytes }

// MMIOOps returns the number of doorbell writes received.
func (ep *Endpoint) MMIOOps() uint64 { return ep.mmioOps }

// Interrupts returns the number of interrupts raised.
func (ep *Endpoint) Interrupts() uint64 { return ep.interrupts }
