package sim

// Queue is an unbounded FIFO queue of items connecting simulated
// processes and event callbacks.
//
// Storage is items[head:]: pops advance head and the backing array is
// reused once the queue drains (or compacted when the dead prefix
// dominates), so steady-state put/get traffic does not reallocate.
type Queue[T any] struct {
	items    []T
	head     int
	notEmpty *Signal
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{notEmpty: NewSignal(e)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// ForcePut appends an item and wakes a process blocked in Get. It never
// blocks, so event callbacks (a core's submit path, a driver's steering
// hook) can call it.
func (q *Queue[T]) ForcePut(item T) {
	q.items = append(q.items, item)
	q.notEmpty.Broadcast()
}

// pop removes the head item. The slot is zeroed so popped items do not
// pin garbage; the backing array is recycled when the queue drains and
// compacted when more than half of it is dead prefix.
func (q *Queue[T]) pop() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return item
}

// Get removes and returns the oldest item, blocking the process while the
// queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.notEmpty.Wait(p)
	}
	return q.pop()
}

// TryGet removes the oldest item without blocking; ok reports success.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}
