package workloads

import (
	"fmt"
	"time"

	"ioctopus/internal/core"
	"ioctopus/internal/kernel"
	"ioctopus/internal/memsys"
	"ioctopus/internal/metrics"
	"ioctopus/internal/nvme"
	"ioctopus/internal/topology"
)

// FioConfig configures the fio job of §5.4: threads performing
// asynchronous direct reads (page cache bypassed) at a fixed queue
// depth, round-robin across the drives.
type FioConfig struct {
	// Cores pins one fio thread per entry (paper: 8 threads on the node
	// remote from the SSDs).
	Cores []topology.CoreID
	// QueueDepth is outstanding requests per thread (paper: 32).
	QueueDepth int
	// BlockSize is the request size (paper: 128 KB).
	BlockSize int64
	// Write issues writes instead of reads.
	Write bool
}

// DefaultFioConfig returns the paper's job on the given cores.
func DefaultFioConfig(cores []topology.CoreID) FioConfig {
	return FioConfig{Cores: cores, QueueDepth: 32, BlockSize: 128 * 1024}
}

// Fio is a running fio job.
type Fio struct {
	bytes    int64
	baseline int64
}

// StartFio launches the job against the rig's drives. Each queue slot
// owns a buffer homed on its thread's node and one request, which its
// completion resubmits, keeping the queue depth constant.
func StartFio(rig *core.StorageRig, cfg FioConfig) *Fio {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 128 * 1024
	}
	w := &Fio{}
	drives := rig.Drives
	for ti, coreID := range cfg.Cores {
		ti := ti
		coreID := coreID
		node := rig.Host.Topo.NodeOf(coreID)
		rig.Kernel().Spawn(fmt.Sprintf("fio%d", ti), coreID, func(th *kernel.Thread) {
			// One buffer per queue slot, homed on the fio node (direct
			// I/O into user memory).
			bufs := make([]*memsys.Buffer, cfg.QueueDepth)
			for i := range bufs {
				bufs[i] = rig.Mem().NewBuffer(fmt.Sprintf("fio%d.%d", ti, i), node, cfg.BlockSize)
			}
			// Prime the queue depth; completions keep it full. The
			// thread itself then idles (the async engine does the work
			// from completion context, like io_uring/libaio).
			for slot, buf := range bufs {
				drv := drives[(ti+slot)%len(drives)]
				req := &nvme.Request{
					Write: cfg.Write,
					Bytes: cfg.BlockSize,
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

// FioGBs converts a fio byte window into GB/s.
func FioGBs(bytes int64, window time.Duration) float64 {
	return metrics.GBs(float64(bytes), window)
}
