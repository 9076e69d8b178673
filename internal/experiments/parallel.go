package experiments

import (
	"runtime"
	"sync"
)

// Every measurement point builds its own Cluster with its own Engine
// and seeds, so points are independent simulations: running them
// concurrently cannot change their results, only the wall-clock time.
// The figure runners fan their points across a bounded worker pool and
// slot results by index, so rendered output is identical at any
// parallelism level.

var (
	parMu sync.RWMutex
	// sem bounds the number of simulations in flight across all
	// experiments; its capacity is the parallelism level.
	sem = make(chan struct{}, runtime.GOMAXPROCS(0))
)

// SetParallelism bounds the number of concurrently running simulation
// points across all experiments. n < 1 is treated as 1 (fully serial).
// The default is runtime.GOMAXPROCS(0). Call between runs, not while
// experiments are in flight.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parMu.Lock()
	sem = make(chan struct{}, n)
	parMu.Unlock()
}

// Parallelism returns the current bound.
func Parallelism() int {
	parMu.RLock()
	defer parMu.RUnlock()
	return cap(sem)
}

// points runs fn(0..n-1) on the worker pool and returns the results
// slotted by index. With parallelism 1 it runs inline, in order; at any
// level the returned slice is identical because each point is an
// isolated deterministic simulation.
func points[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	parMu.RLock()
	s := sem
	parMu.RUnlock()
	if n <= 1 || cap(s) == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		// Per-iteration loop variable (Go 1.22): capture directly.
		go func() {
			defer wg.Done()
			s <- struct{}{}
			defer func() { <-s }()
			out[i] = fn(i)
		}()
	}
	wg.Wait()
	return out
}

// grid runs fn over the cross product [0,outer) x [0,inner) and returns
// results indexed [o][i]. It flattens to a single fan-out so all
// outer*inner simulations can run concurrently.
func grid[T any](outer, inner int, fn func(o, i int) T) [][]T {
	flat := points(outer*inner, func(k int) T {
		return fn(k/inner, k%inner)
	})
	out := make([][]T, outer)
	for o := range out {
		out[o] = flat[o*inner : (o+1)*inner]
	}
	return out
}
