package sim

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// oracleFlow is the water-fill oracle's copy of one flow.
type oracleFlow struct{ demand, alloc float64 }

// oracleWaterFill is the slice-based water-fill Pipe.reallocate ran
// before it filled in place, with the pipe's inputs passed explicitly:
// capacity, guaranteed discrete share, the discrete-rate estimate at
// the reallocation instant and the flows in pipe order. It sets each
// flow's alloc and returns the total fluid rate. FuzzWaterFill holds
// the pipe to it bit for bit.
func oracleWaterFill(capacity, minShare, discRate float64, flows []*oracleFlow) float64 {
	protected := discRate
	if lim := capacity * minShare; protected > lim {
		protected = lim
	}
	capf := capacity - protected
	if capf < 0 {
		capf = 0
	}
	remaining := capf
	unsat := make([]*oracleFlow, 0, len(flows))
	var elastic []*oracleFlow
	for _, f := range flows {
		f.alloc = 0
		if math.IsInf(f.demand, 1) {
			elastic = append(elastic, f)
		} else if f.demand > 0 {
			unsat = append(unsat, f)
		}
	}
	for len(unsat) > 0 && remaining > 1e-9 {
		share := remaining / float64(len(unsat)+len(elastic))
		progressed := false
		next := unsat[:0]
		for _, f := range unsat {
			want := f.demand - f.alloc
			grant := math.Min(want, share)
			f.alloc += grant
			remaining -= grant
			if f.alloc < f.demand-1e-9 {
				next = append(next, f)
			} else {
				progressed = true
			}
		}
		unsat = next
		if !progressed {
			break
		}
	}
	if len(elastic) > 0 && remaining > 0 {
		share := remaining / float64(len(elastic))
		for _, f := range elastic {
			f.alloc = share
		}
	}
	var rate float64
	for _, f := range flows {
		rate += f.alloc
	}
	return rate
}

// Water-fill fuzz operations. Each one is preceded by a byte that
// advances the clock by at least a nanosecond.
const (
	wfAdd      = iota // demand kind byte, uint32 value
	wfRemove          // index byte into the live flows
	wfDegrade         // bandwidth and latency factor bytes
	wfTransfer        // uint16 size in 64-byte units
	wfCharge          // uint16 size in 64-byte units
	wfQuery           // Utilization only
	wfOps
)

// wfSeed encodes a water-fill operation sequence.
type wfSeed []byte

// add adds a flow of finite demand in units of 10 kB/s.
func (s wfSeed) add(gap byte, units uint32) wfSeed {
	s = append(s, gap, wfAdd, 2)
	return binary.LittleEndian.AppendUint32(s, units)
}

func (s wfSeed) elastic(gap byte) wfSeed { return append(s, gap, wfAdd, 1, 0, 0, 0, 0) }

func (s wfSeed) remove(gap, idx byte) wfSeed { return append(s, gap, wfRemove, idx) }

func (s wfSeed) degrade(gap, bw, lat byte) wfSeed { return append(s, gap, wfDegrade, bw, lat) }

func (s wfSeed) transfer(gap byte, lines uint16) wfSeed {
	return binary.LittleEndian.AppendUint16(append(s, gap, wfTransfer), lines)
}

func (s wfSeed) query(gap byte) wfSeed { return append(s, gap, wfQuery) }

// streamFlows is the flow set of k STREAM instances of the given demand
// (in 10 kB/s units) on one pipe, with 64 KB packet DMAs between the
// arrivals, as Figures 11 and 15 build it; the instances then stop.
func streamFlows(k int, units uint32) []byte {
	var s wfSeed
	for i := 0; i < k; i++ {
		s = s.add(3, units).transfer(1, 1024).query(2)
	}
	for i := 0; i < 8; i++ {
		s = s.transfer(9, 1024).query(5)
	}
	for i := 0; i < k; i++ {
		s = s.remove(1, 0)
	}
	return s
}

// FuzzWaterFill drives a pipe through random flow sets (finite, zero
// and elastic demands), removals, degradations and discrete load at
// advancing instants, and after each operation requires every flow's
// Rate and the pipe's FluidRate to equal the oracle's exactly.
func FuzzWaterFill(f *testing.F) {
	// Figure 11: 11 GB/s STREAM instances on a Broadwell memory
	// controller (60 GB/s) and a QPI direction (2 x 19.2 GB/s, 23%
	// guaranteed DMA share), 1 to 6 per pipe.
	for k := 1; k <= 6; k++ {
		f.Add(60e9, 0.0, streamFlows(k, 1_100_000))
		f.Add(38.4e9, 0.23, streamFlows(k, 1_100_000))
	}
	// Figure 15: 10 GB/s instances on a Skylake memory controller
	// (90 GB/s), 1 to 10, and on a UPI direction (2 x 20.8 GB/s).
	for k := 1; k <= 10; k++ {
		f.Add(90e9, 0.0, streamFlows(k, 1_000_000))
		f.Add(41.6e9, 0.23, streamFlows((k+1)/2, 1_000_000))
	}
	mixed := wfSeed(nil).add(0, 300).elastic(1).add(2, 0).elastic(3).add(4, 4_000_000).
		transfer(5, 60000).query(6).remove(7, 1).degrade(8, 31, 127).query(9).remove(10, 0)
	f.Add(1e9, 0.05, []byte(mixed))

	f.Fuzz(func(t *testing.T, capacity, minShare float64, ops []byte) {
		if !(capacity >= 1e3 && capacity <= 1e15) || !(minShare <= 1) {
			t.Skip()
		}
		e := NewEngine()
		p := NewPipe(e, PipeConfig{Name: "fuzz", BytesPerSec: capacity, MinDiscreteShare: minShare})
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var live []*FluidFlow
		var removed []*FluidFlow
		for step := 0; len(ops) > 0 && step < 512; step++ {
			g := time.Duration(next())
			e.RunFor(1 + g*g*37)
			before := p.DiscreteRate()
			op := next() % wfOps
			switch op {
			case wfAdd:
				kind := next()
				v := uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24
				var demand float64
				switch kind % 4 {
				case 1:
					demand = math.Inf(1)
				case 2:
					demand = float64(v) * 1e4
				case 3:
					demand = float64(v) * 1e4 / 3
				}
				live = append(live, p.AddFlow("f", demand))
			case wfRemove:
				i := int(next())
				if len(live) == 0 {
					continue
				}
				i %= len(live)
				live[i].Remove()
				removed = append(removed, live[i])
				live = append(live[:i], live[i+1:]...)
			case wfDegrade:
				p.SetDegradation((float64(next())+1)/64, (float64(next())+1)/64)
			case wfTransfer, wfCharge:
				n := int64(uint16(next())|uint16(next())<<8) * 64
				if op == wfTransfer {
					p.Transfer(n, nil)
				} else {
					p.Charge(n)
				}
			case wfQuery:
				p.Utilization()
			}
			// A transfer or a charge bumps the rate estimate after the
			// pipe re-water-filled at this instant. Every other
			// operation fills last, at the current estimate.
			disc := before
			if op != wfTransfer && op != wfCharge {
				disc = p.DiscreteRate()
			}
			want := make([]*oracleFlow, len(live))
			for i, fl := range live {
				want[i] = &oracleFlow{demand: fl.demand}
			}
			wantRate := oracleWaterFill(p.capacity, p.minShare, disc, want)
			for i, fl := range live {
				if got := fl.Rate(); got != want[i].alloc {
					t.Fatalf("step %d: flow %d of %d (demand %v) rate %v, oracle %v",
						step, i, len(live), fl.demand, got, want[i].alloc)
				}
			}
			if got := p.FluidRate(); got != wantRate {
				t.Fatalf("step %d: fluid rate %v, oracle %v", step, got, wantRate)
			}
			for _, fl := range removed {
				if fl.Rate() != 0 {
					t.Fatalf("step %d: removed flow rate %v", step, fl.Rate())
				}
			}
		}
	})
}
