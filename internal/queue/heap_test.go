package queue

import (
	"container/heap"
	"math/rand"
	"testing"
)

// item carries a key that ties often and an id that tells tied
// elements apart.
type item struct{ key, id int }

// refHeap is the container/heap reference, shaped like the heaps this
// package's Heap replaced: Less on the key only, slice-backed.
type refHeap []item

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(item)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestHeapMatchesContainerHeap drives Heap and container/heap with the
// same random push/pop interleavings over a small key range, so ties
// are common, and requires identical pop sequences — ids included.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		keys := 1 + rng.Intn(8)
		pushBias := 1 + rng.Intn(4)
		h := NewHeap(func(a, b item) bool { return a.key < b.key })
		var ref refHeap
		id := 0
		for step := 0; step < 400; step++ {
			if rng.Intn(pushBias+1) > 0 || ref.Len() == 0 {
				v := item{key: rng.Intn(keys), id: id}
				id++
				h.Push(v)
				heap.Push(&ref, v)
			} else {
				got, want := h.Pop(), heap.Pop(&ref).(item)
				if got != want {
					t.Fatalf("round %d step %d: Pop = %+v, container/heap pops %+v", round, step, got, want)
				}
			}
			if h.Len() != ref.Len() {
				t.Fatalf("round %d step %d: Len = %d, want %d", round, step, h.Len(), ref.Len())
			}
			if h.Len() > 0 && h.Min() != ref[0] {
				t.Fatalf("round %d step %d: Min = %+v, want %+v", round, step, h.Min(), ref[0])
			}
		}
		for ref.Len() > 0 {
			if got, want := h.Pop(), heap.Pop(&ref).(item); got != want {
				t.Fatalf("round %d drain: Pop = %+v, container/heap pops %+v", round, got, want)
			}
		}
	}
}

func TestHeapResetKeepsWorking(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	for _, v := range []int{5, 1, 4} {
		h.Push(v)
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(3)
	h.Push(2)
	if a, b := h.Pop(), h.Pop(); a != 2 || b != 3 {
		t.Fatalf("pops after Reset = %d, %d", a, b)
	}
}

func TestHeapSteadyStateAllocatesNothing(t *testing.T) {
	h := NewHeap(func(a, b int) bool { return a < b })
	for i := 0; i < 64; i++ {
		h.Push(i)
	}
	for h.Len() > 0 {
		h.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			h.Push((i * 37) % 64)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fill/drain after warm-up", allocs)
	}
}
