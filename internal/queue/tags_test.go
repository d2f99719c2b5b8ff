package queue

import "testing"

// TestTagsPutTake: tags that share a slot grow the table and all stay
// reachable, a repeated tag takes the new value, and a taken or unknown
// tag is not found.
func TestTagsPutTake(t *testing.T) {
	var tags Tags[uint64]
	if _, ok := tags.Take(5); ok {
		t.Fatal("empty table found a tag")
	}
	in := []uint64{1, 1 + minTags, 1 + 2*minTags, 1 + 5*minTags, 3}
	for _, tag := range in {
		tags.Put(tag, 10*tag)
	}
	tags.Put(3, 7)
	if tags.Len() != len(in) {
		t.Fatalf("Len %d, want %d", tags.Len(), len(in))
	}
	seen := 0
	tags.Each(func(uint64, uint64) { seen++ })
	if seen != len(in) {
		t.Fatalf("Each visited %d tags, want %d", seen, len(in))
	}
	for _, tag := range in {
		want := 10 * tag
		if tag == 3 {
			want = 7
		}
		if v, ok := tags.Take(tag); !ok || v != want {
			t.Fatalf("Take(%d) = %d, %v; want %d, true", tag, v, ok, want)
		}
		if _, ok := tags.Take(tag); ok {
			t.Fatalf("Take(%d) found it twice", tag)
		}
	}
	if _, ok := tags.Take(2); ok || tags.Len() != 0 {
		t.Fatalf("after taking everything: Len %d", tags.Len())
	}
	tags.Put(9, 1)
	tags.Reset()
	if _, ok := tags.Take(9); ok || tags.Len() != 0 {
		t.Fatal("Reset left a tag in flight")
	}
}

// TestTagsSteadyStateAllocatesNothing: tags numbered upward and retired
// out of order within a bounded window stop growing the table.
func TestTagsSteadyStateAllocatesNothing(t *testing.T) {
	const window = 200
	var tags Tags[int]
	var next uint64
	step := func() {
		tags.Put(next, 0)
		if next >= window {
			// Adjacent tags retire swapped: 1 before 0, 3 before 2, ...
			if _, ok := tags.Take((next - window) ^ 1); !ok {
				t.Fatalf("tag %d not in flight", (next-window)^1)
			}
		}
		next++
	}
	for i := 0; i < 10*window; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			step()
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per 1000 tags", allocs)
	}
	if tags.Len() != window {
		t.Fatalf("%d tags in flight, want %d", tags.Len(), window)
	}
}
