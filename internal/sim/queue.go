package sim

// Queue is an unbounded FIFO. The zero value is an empty queue ready to
// use; it holds no engine and wakes no one, so its owner signals
// whoever waits on it.
//
// Storage is items[head:]: pops advance head and the backing array is
// reused once the queue drains (or compacted when the dead prefix
// dominates), so steady-state put/pop traffic does not reallocate.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Put appends an item.
func (q *Queue[T]) Put(item T) { q.items = append(q.items, item) }

// Pop removes and returns the oldest item; the queue must not be empty.
// The slot is zeroed so popped items do not pin garbage; the backing
// array is recycled when the queue drains and compacted when more than
// half of it is dead prefix.
func (q *Queue[T]) Pop() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 > len(q.items) {
		q.compact()
	}
	return item
}

// TryGet removes the oldest item if there is one; ok reports success.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.Len() == 0 {
		return item, false
	}
	return q.Pop(), true
}

// PopN removes up to n of the oldest items and returns them, oldest
// first, as a view of the queue's backing array: it is valid until the
// next Put or PopN, which may write over it. The view's slots are not
// zeroed. The dead prefix is compacted away before the view is taken,
// never after, so compaction cannot clobber a view still in use.
func (q *Queue[T]) PopN(n int) []T {
	n = min(n, q.Len())
	if q.head > 0 {
		q.compact()
	}
	batch := q.items[:n]
	q.head = n
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return batch
}

// compact moves the live items to the front of the backing array and
// clears the slots they leave.
func (q *Queue[T]) compact() {
	n := copy(q.items, q.items[q.head:])
	clear(q.items[n:])
	q.items = q.items[:n]
	q.head = 0
}
