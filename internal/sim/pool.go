package sim

import "fmt"

// PoolStats counts pool traffic: Hits/Misses split leases between
// recycled and freshly allocated objects; Live is leases not yet
// released.
type PoolStats struct {
	Hits, Misses, Recycled uint64
	Live                   int
}

// Pool is a generation-counted free list for per-packet model objects,
// mirroring the engine's event-slot arena: a steady-state lease costs
// no heap allocation. Each pooled object embeds a Lease, which carries
// its pool, its generation and whether it is leased, and which returns
// it to the free list on Release.
//
// A pool built with pooled false is the unpooled baseline: every Get
// allocates, Release is a no-op and the counters stay zero.
type Pool[T any] struct {
	pooled bool
	free   []*Lease[T]
	stats  PoolStats
	alloc  func() (*T, *Lease[T])
	reset  func(*T)
}

// NewPool returns a pool whose misses build objects with alloc, which
// returns the object and its embedded lease, and whose releases clear
// the object with reset before it rejoins the free list.
func NewPool[T any](pooled bool, alloc func() (*T, *Lease[T]), reset func(*T)) *Pool[T] {
	return &Pool[T]{pooled: pooled, alloc: alloc, reset: reset}
}

// Get leases an object. Fields reset leaves alone hold the previous
// lease's values; the caller fills every field it uses.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		l := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		l.leased = true
		p.stats.Hits++
		p.stats.Live++
		return l.obj
	}
	obj, l := p.alloc()
	if p.pooled {
		l.pool, l.obj, l.leased = p, obj, true
		p.stats.Misses++
		p.stats.Live++
	}
	return obj
}

// Stats returns the pool counters.
func (p *Pool[T]) Stats() PoolStats { return p.stats }

// Lease is the pool bookkeeping a pooled object embeds. Its zero value
// belongs to no pool, so objects built by hand release as a no-op.
type Lease[T any] struct {
	pool   *Pool[T]
	obj    *T
	gen    uint32
	leased bool
}

// Release returns the object to its pool, cleared by the pool's reset.
// The object must not be touched afterwards; releasing it twice is a
// lifetime bug and panics.
func (l *Lease[T]) Release() {
	p := l.pool
	if p == nil {
		return
	}
	if !l.leased {
		panic(fmt.Sprintf("sim: pooled %T released twice", l.obj))
	}
	l.leased = false
	l.gen++
	p.reset(l.obj)
	p.stats.Live--
	p.stats.Recycled++
	p.free = append(p.free, l)
}

// Generation returns the object's release count; a held pointer whose
// generation has moved on is a stale reference.
func (l *Lease[T]) Generation() uint32 { return l.gen }
