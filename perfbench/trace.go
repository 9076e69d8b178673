package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the simulator.
// A nil tracer records nothing, which is how the timed runs use it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one call: its id is its index in tracer.spans plus one, and
// parent 0 marks a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// hostNow reads the host clock. The benchmark times the simulator from
// outside; no reading reaches a simulation.
func hostNow() time.Time {
	return time.Now() //octolint:allow simdeterminism host time is what the benchmark measures; simulations never see it
}

func hostSince(t time.Time) time.Duration { return hostNow().Sub(t) }

func newTracer() *tracer { return &tracer{epoch: hostNow()} }

func (t *tracer) since() float64 { return float64(hostSince(t.epoch)) / 1e3 }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].DurUS = now - t.spans[id-1].StartUS
}

// seconds sums the durations of the spans with the given name.
func (t *tracer) seconds(name string) float64 {
	var us float64
	for _, s := range t.spans {
		if s.Name == name {
			us += s.DurUS
		}
	}
	return us / 1e6
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// runtimeStats are the Go runtime counters the traced run reports as
// deltas.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles, gcCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{allocBytes: v[0], allocObjects: v[1], gcCycles: v[2], gcCPU: v[3]}
}

// cpuPackages are the simulator packages a CPU profile is bucketed by.
// Leaf functions elsewhere fall in "runtime" (the Go scheduler, GC and
// channel machinery) or "other" (the standard library, the benchmark).
var cpuPackages = []string{
	"core", "device", "driver", "eth", "experiments", "faults", "interconnect",
	"kernel", "memsys", "metrics", "netstack", "nic", "nvme", "pcie",
	"scenario", "sim", "topology", "workloads",
}

// bucketOf names the bucket of a leaf function.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ioctopus/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, p := range cpuPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}

// cpuBuckets splits the CPU time of a gzipped pprof CPU profile by the
// bucket of each sample's leaf function. It returns seconds per bucket
// (every bucket present) and the profile total; the buckets partition
// the samples, so they sum to the total.
func cpuBuckets(profile []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs      []string
		types     []int64 // sample_type string indexes
		samples   [][]byte
		locLeaf   = map[uint64]uint64{} // location id -> innermost function id
		funcNames = map[uint64]int64{}  // function id -> name string index
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined call
					if first {
						first = false
						return eachField(line, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locLeaf[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	cpu := -1
	for i, t := range types {
		if int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, 0, errors.New("profile has no cpu sample type")
	}
	ns := map[string]int64{}
	var total int64
	for _, s := range samples {
		var locs, vals []uint64
		err := eachField(s, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				locs = appendVarints(locs, v, b)
			case 2:
				vals = appendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		if cpu >= len(vals) {
			continue
		}
		name := ""
		if len(locs) > 0 {
			if idx, ok := funcNames[locLeaf[locs[0]]]; ok && int(idx) < len(strs) {
				name = strs[idx]
			}
		}
		v := int64(vals[cpu])
		ns[bucketOf(name)] += v
		total += v
	}
	out := map[string]float64{"runtime": 0, "other": 0}
	for _, p := range cpuPackages {
		out[p] = 0
	}
	for b, v := range ns {
		out[b] = float64(v) / 1e9
	}
	return out, float64(total) / 1e9, nil
}

// eachField walks the fields of one protobuf message, passing varints in
// v and length-delimited payloads in b.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
