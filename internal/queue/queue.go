// Package queue provides the bounded FIFO ring buffer used for every
// hardware queue in the model: the request router's Local/Global/Remote
// access queues, the coalescer frontends' input queues, and the
// interconnect's link, router-input, injection and ejection queues.
//
// The queues keep occupancy statistics so the experiment harness can
// report contention and sizing data without extra instrumentation.
//
// Heap is the binary min-heap behind the device's response queue and
// the ideal crossbar's delivery queue, and Tags the table of tags in
// flight behind the LSQs and the response router.
package queue

import "fmt"

// FIFO is a bounded first-in first-out ring buffer of T.
// The zero value is not usable; construct with New.
//
// The backing array grows on demand: it starts empty, and a push into
// a full array that is still below the bound doubles it (minimum
// minGrow slots, never beyond the bound rounded up to a power of two).
// Its length is always a power of two, so indexing is a mask. A queue
// whose bound is far above its real occupancy — the interconnect's
// buffers, sized in flits but mostly holding a few messages — costs
// only what it holds, and after warm-up a queue allocates nothing.
type FIFO[T any] struct {
	buf   []T // len(buf) is 0 or a power of two
	bound int
	head  int
	size  int

	pushes    uint64
	rejects   uint64
	occupancy uint64 // sum of size observed at each push attempt
	maxSize   int
}

// minGrow is the smallest backing array a FIFO allocates.
const minGrow = 8

// New returns an empty FIFO with the given capacity. Capacity must be
// positive. Nothing is allocated until the first push.
func New[T any](capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: non-positive capacity %d", capacity))
	}
	return &FIFO[T]{bound: capacity}
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.size }

// Cap returns the queue capacity: the bound passed to New.
func (q *FIFO[T]) Cap() int { return q.bound }

// Full reports whether no more elements can be pushed.
func (q *FIFO[T]) Full() bool { return q.size == q.bound }

// grow doubles the backing array, unwrapping the queue to its front.
// Only called when the array is full and below the bound, so the new
// length never exceeds the bound rounded up to a power of two.
func (q *FIFO[T]) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = minGrow
		for n/2 >= q.bound {
			n /= 2
		}
	}
	buf := make([]T, n)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Empty reports whether the queue holds no elements.
func (q *FIFO[T]) Empty() bool { return q.size == 0 }

// Push appends v and reports whether there was room. A rejected push
// leaves the queue unchanged (callers model stall/backpressure).
func (q *FIFO[T]) Push(v T) bool {
	q.pushes++
	q.occupancy += uint64(q.size)
	if q.size == q.bound {
		q.rejects++
		return false
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
	if q.size > q.maxSize {
		q.maxSize = q.size
	}
	return true
}

// Pop removes and returns the oldest element. ok is false when empty.
func (q *FIFO[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v, true
}

// Peek returns the oldest element without removing it.
func (q *FIFO[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest queued element (0 = front). It panics if i
// is out of range; use Len to bound iteration.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue: At(%d) with size %d", i, q.size))
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Reset discards all elements and statistics. The backing array is
// kept for reuse.
func (q *FIFO[T]) Reset() {
	var zero T
	for i := range q.buf {
		q.buf[i] = zero
	}
	q.head, q.size = 0, 0
	q.pushes, q.rejects, q.occupancy, q.maxSize = 0, 0, 0, 0
}

// Stats summarizes queue behaviour over its lifetime.
type Stats struct {
	Pushes       uint64  // push attempts, including rejected ones
	Rejects      uint64  // pushes refused because the queue was full
	MaxOccupancy int     // high-water mark
	AvgOccupancy float64 // mean size observed at push attempts
}

// Stats returns the accumulated statistics.
func (q *FIFO[T]) Stats() Stats {
	s := Stats{Pushes: q.pushes, Rejects: q.rejects, MaxOccupancy: q.maxSize}
	if q.pushes > 0 {
		s.AvgOccupancy = float64(q.occupancy) / float64(q.pushes)
	}
	return s
}
