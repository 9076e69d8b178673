package main

import (
	"sort"
	"time"
)

// The host this benchmark shares drifts in speed by 20-40% over minutes,
// in step for every workload, so two sets of runs of the same code a
// quarter of an hour apart disagree by more than any useful bound. Each
// run therefore also times a fixed job that shares no code with the
// simulator but leans on what the simulator leans on (goroutines handing
// off over unbuffered channels, small allocations into a map, sorting),
// and scales its host times to a host on which that job takes calibRef.
// A slower simulator still reads slower; a slower host does not.

// calibRef is the calibration job's typical time on the reference host,
// a 2-vCPU Xeon virtual machine at 2.0 GHz running go1.24.0.
const calibRef = 35 * time.Millisecond

// calibSamples is how many calibration jobs a run times at its start and
// again at its end, besides one before each iteration.
const calibSamples = 5

// calibrate times one run of the calibration job.
func calibrate() time.Duration {
	t0 := hostNow()
	req, resp := make(chan int), make(chan int)
	go func() {
		for v := range req {
			resp <- v + 1
		}
		close(resp)
	}()
	for i := range 20000 {
		req <- i
		<-resp
	}
	close(req)
	for range resp {
	}
	m := map[int][]byte{}
	for i := range 40000 {
		m[i%4096] = make([]byte, 64+i%256)
	}
	xs := make([]int, 100000)
	for i := range xs {
		xs[i] = (i * 7919) % len(xs)
	}
	sort.Ints(xs)
	return hostSince(t0)
}

// hostScale turns calibration samples, in seconds, into the factor that
// scales this run's host times to the reference host.
func hostScale(samples []float64) float64 { return calibRef.Seconds() / median(samples) }
