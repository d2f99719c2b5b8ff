package queue

// Heap is a binary min-heap of T ordered by a caller-supplied less.
// The zero value is not usable; construct with NewHeap.
//
// Push and Pop visit and move elements exactly as container/heap's
// Push and Pop do on a slice-backed heap.Interface, so elements that
// compare equal pop in the same order. The model's golden captures
// depend on that tie order, which container/heap leaves unspecified;
// TestHeapMatchesContainerHeap holds the two to it. Unlike
// container/heap, nothing is boxed in an interface: once the backing
// slice has grown to the high-water mark, Push and Pop allocate
// nothing.
type Heap[T any] struct {
	s    []T
	less func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Min returns the smallest element without removing it. It panics on
// an empty heap; use Len to check.
func (h *Heap[T]) Min() T { return h.s[0] }

// Push adds v. It sifts v up from the end, as container/heap.Push
// does, but moves parents down into the hole instead of swapping.
func (h *Heap[T]) Push(v T) {
	h.s = append(h.s, v)
	j := len(h.s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(v, h.s[i]) {
			break
		}
		h.s[j] = h.s[i]
		j = i
	}
	h.s[j] = v
}

// Pop removes and returns the smallest element. It panics on an empty
// heap. As container/heap.Pop does, it moves the last element to the
// root and sifts it down over the remaining elements.
func (h *Heap[T]) Pop() T {
	n := len(h.s) - 1
	top := h.s[0]
	v := h.s[n]
	var zero T
	h.s[n] = zero
	h.s = h.s[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(h.s[j2], h.s[j]) {
			j = j2
		}
		if !h.less(h.s[j], v) {
			break
		}
		h.s[i] = h.s[j]
		i = j
	}
	h.s[i] = v
	return top
}

// Reset discards every element, keeping the backing array.
func (h *Heap[T]) Reset() {
	clear(h.s)
	h.s = h.s[:0]
}
