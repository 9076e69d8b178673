package workloads

import (
	"fmt"

	"ioctopus/internal/core"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/nvme"
	"ioctopus/internal/topology"
)

// The §5.4 fio job's fixed shape: asynchronous direct reads (page
// cache bypassed) of fioBlockSize bytes, fioQueueDepth outstanding per
// thread.
const (
	fioQueueDepth       = 32
	fioBlockSize  int64 = 128 * 1024
)

// Fio is a running fio job.
type Fio struct {
	bytes    int64
	baseline int64
}

// StartFio launches the job against the rig's drives: one fio thread
// pinned on each of cores (paper: 8 threads on the node remote from the
// SSDs), its requests round-robin across the drives. Each queue slot
// owns a buffer homed on its thread's node and one request, which its
// completion resubmits, keeping the queue depth constant.
func StartFio(rig *core.StorageRig, cores []topology.CoreID) *Fio {
	w := &Fio{}
	drives := rig.Drives
	for ti, coreID := range cores {
		ti := ti
		coreID := coreID
		node := rig.Host.Topo.NodeOf(coreID)
		rig.Host.Kernel.Spawn(fmt.Sprintf("fio%d", ti), coreID, func(th *kernel.Thread) {
			// One buffer per queue slot, homed on the fio node (direct
			// I/O into user memory).
			bufs := make([]*memsys.Buffer, fioQueueDepth)
			for i := range bufs {
				bufs[i] = rig.Host.Mem.NewBuffer(node, fioBlockSize)
			}
			// Prime the queue depth; completions keep it full. The
			// thread itself then idles (the async engine does the work
			// from completion context, like io_uring/libaio).
			for slot, buf := range bufs {
				drv := drives[(ti+slot)%len(drives)]
				req := &nvme.Request{
					Bytes: fioBlockSize,
					Buf:   buf,
					OnComplete: func(r *nvme.Request) {
						w.bytes += r.Bytes
						drv.SubmitAsync(coreID, r)
					},
				}
				drv.SubmitAsync(coreID, req)
			}
		})
	}
	return w
}

// MeasureStart marks the measurement window start.
func (w *Fio) MeasureStart() { w.baseline = w.bytes }

// Bytes returns bytes completed since MeasureStart.
func (w *Fio) Bytes() int64 { return w.bytes - w.baseline }

// StartAntagonistOn places `count` STREAM instances on cpuNode, all
// targeting memory on memNode (the §5.4 placement: STREAM runs on the
// SSDs' node and targets the fio node's memory), alternating readers
// and writers.
func StartAntagonistOn(h *core.Host, count int, cpuNode, memNode topology.NodeID, cfg AntagonistConfig) *Antagonist {
	a := &Antagonist{host: h}
	for i := 0; i < count; i++ {
		read := i%2 == 0
		a.instances = append(a.instances,
			a.addInstance(fmt.Sprintf("stream%d@%d", i, cpuNode), cpuNode, memNode, read, cfg))
	}
	return a
}
