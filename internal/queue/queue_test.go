package queue

import (
	"testing"
	"testing/quick"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](4)
	for i := 1; i <= 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 1; i <= 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestFIFORejectsWhenFull(t *testing.T) {
	q := New[string](2)
	q.Push("a")
	q.Push("b")
	if q.Push("c") {
		t.Fatal("push into full queue accepted")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d after rejected push", q.Len())
	}
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("rejected push corrupted order: got %q", v)
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := New[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*3 + i) {
				t.Fatalf("round %d push %d rejected", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != round*3+i {
				t.Fatalf("round %d: pop = (%d,%v)", round, v, ok)
			}
		}
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	q := New[int](2)
	q.Push(7)
	for i := 0; i < 3; i++ {
		if v, ok := q.Peek(); !ok || v != 7 {
			t.Fatalf("peek %d = (%d,%v)", i, v, ok)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("peek consumed: len=%d", q.Len())
	}
}

func TestAtIndexesFromFront(t *testing.T) {
	q := New[int](4)
	q.Push(0)
	q.Push(1)
	q.Pop() // force non-zero head
	q.Push(2)
	q.Push(3)
	want := []int{1, 2, 3}
	for i, w := range want {
		if got := q.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	q := New[int](2)
	q.Push(1)
	q.At(1)
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestStatsTracking(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	q.Push(2)
	q.Push(3) // rejected
	s := q.Stats()
	if s.Pushes != 3 || s.Rejects != 1 || s.MaxOccupancy != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Occupancies observed at pushes: 0, 1, 2 -> avg 1.
	if s.AvgOccupancy != 1 {
		t.Fatalf("avg occupancy = %v, want 1", s.AvgOccupancy)
	}
}

func TestResetClearsEverything(t *testing.T) {
	q := New[int](2)
	q.Push(1)
	q.Reset()
	if q.Len() != 0 || !q.Empty() {
		t.Fatal("reset left elements")
	}
	if s := q.Stats(); s.Pushes != 0 || s.MaxOccupancy != 0 {
		t.Fatalf("reset left stats: %+v", s)
	}
}

func TestFIFOPropertyAgainstSlice(t *testing.T) {
	// Property: a FIFO behaves exactly like a bounded slice model
	// under an arbitrary push/pop command sequence.
	f := func(cmds []uint8) bool {
		q := New[uint8](8)
		var model []uint8
		for _, c := range cmds {
			if c%3 != 0 { // push twice as often as pop
				ok := q.Push(c)
				wantOK := len(model) < 8
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, c)
				}
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFIFOGrowthKeepsOrderAndBound runs the slice model against bounds
// that are not powers of two, so the backing array grows past the
// bound's own size and wraps while growing.
func TestFIFOGrowthKeepsOrderAndBound(t *testing.T) {
	for _, bound := range []int{1, 3, 5, 8, 9, 100} {
		q := New[int](bound)
		var model []int
		next := 0
		for step := 0; step < 2000; step++ {
			if (step/7)%3 != 2 {
				ok := q.Push(next)
				if ok != (len(model) < bound) {
					t.Fatalf("bound %d step %d: Push = %v with %d queued", bound, step, ok, len(model))
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else if v, ok := q.Pop(); ok != (len(model) > 0) || (ok && v != model[0]) {
				t.Fatalf("bound %d step %d: Pop = (%d,%v), model %v", bound, step, v, ok, model)
			} else if ok {
				model = model[1:]
			}
			if q.Len() != len(model) || q.Full() != (len(model) == bound) || q.Cap() != bound {
				t.Fatalf("bound %d step %d: Len %d Full %v Cap %d, model %d", bound, step, q.Len(), q.Full(), q.Cap(), len(model))
			}
			for i, w := range model {
				if q.At(i) != w {
					t.Fatalf("bound %d step %d: At(%d) = %d, want %d", bound, step, i, q.At(i), w)
				}
			}
		}
	}
}

var escaped *FIFO[int]

func TestFIFOAllocatesOnDemand(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { escaped = New[int](1 << 20) }); allocs != 1 {
		t.Fatalf("New with a 2^20 bound: %v allocations, want 1 (the header only)", allocs)
	}
	q := New[int](1 << 20)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fill/drain after warm-up", allocs)
	}
}
