package core

import (
	"testing"
	"testing/quick"

	"mac3d/internal/addr"
	"mac3d/internal/memreq"
)

func load(a uint64, thread, tag uint16) memreq.RawRequest {
	return memreq.RawRequest{Addr: a, Size: 8, Thread: thread, Tag: tag}
}

func store(a uint64, thread, tag uint16) memreq.RawRequest {
	return memreq.RawRequest{Addr: a, Size: 8, Store: true, Thread: thread, Tag: tag}
}

func newAgg(t *testing.T) *Aggregator {
	t.Helper()
	cfg := DefaultAggregatorConfig()
	cfg.FillMode = false // deterministic merging for unit tests
	return NewAggregator(cfg)
}

func TestAggregatorMergesSameRowLoads(t *testing.T) {
	a := newAgg(t)
	row := uint64(0xA) << addr.RowShift
	// Figure 7: loads of FLITs 6, 8, 9 of row 0xA merge into one entry.
	a.Push(load(row+6*16, 0, 0), 0)
	a.Push(load(row+8*16, 1, 0), 1)
	a.Push(load(row+9*16, 2, 0), 2)
	if a.Len() != 1 {
		t.Fatalf("entries = %d, want 1", a.Len())
	}
	e, ok := a.Pop()
	if !ok {
		t.Fatal("pop failed")
	}
	if len(e.targets) != 3 {
		t.Fatalf("targets = %d, want 3", len(e.targets))
	}
	want := WideMap(0).Set(6).Set(8).Set(9)
	if e.fmap != want {
		t.Fatalf("flit map %s, want %s", e.fmap, want)
	}
	if e.bypass {
		t.Fatal("multi-target entry must not set B")
	}
}

func TestAggregatorSeparatesLoadsFromStores(t *testing.T) {
	// Figure 7: a store to the same row gets its own entry (T bit).
	a := newAgg(t)
	row := uint64(0xA) << addr.RowShift
	a.Push(load(row+6*16, 0, 0), 0)
	a.Push(store(row+7*16, 1, 0), 1)
	a.Push(load(row+8*16, 2, 0), 2)
	if a.Len() != 2 {
		t.Fatalf("entries = %d, want 2 (loads+store)", a.Len())
	}
	e1, _ := a.Pop()
	e2, _ := a.Pop()
	if addr.TagIsStore(e1.tag) || !addr.TagIsStore(e2.tag) {
		t.Fatal("entry types wrong")
	}
	if len(e1.targets) != 2 || len(e2.targets) != 1 {
		t.Fatalf("targets %d/%d, want 2/1", len(e1.targets), len(e2.targets))
	}
	if !e2.bypass {
		t.Fatal("single-request store entry must set B at pop (Figure 7)")
	}
}

func TestAggregatorDifferentRowsDifferentEntries(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x000, 0, 0), 0)
	a.Push(load(0x100, 0, 1), 1)
	a.Push(load(0x200, 0, 2), 2)
	if a.Len() != 3 {
		t.Fatalf("entries = %d, want 3", a.Len())
	}
}

func TestAggregatorFIFOOrderPreserved(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x100, 0, 0), 0)
	a.Push(load(0x200, 0, 1), 1)
	a.Push(load(0x100+16, 0, 2), 2) // merges into first entry
	e1, _ := a.Pop()
	e2, _ := a.Pop()
	if addr.TagRow(e1.tag) != 1 || addr.TagRow(e2.tag) != 2 {
		t.Fatalf("pop order: rows %#x then %#x", addr.TagRow(e1.tag), addr.TagRow(e2.tag))
	}
}

func TestAggregatorMergeAfterInterveningPop(t *testing.T) {
	// After a pop shifts the FIFO, open-map indices must still point
	// at the right entries.
	a := newAgg(t)
	a.Push(load(0x100, 0, 0), 0)
	a.Push(load(0x200, 0, 1), 1)
	a.Pop() // removes row 1's entry
	a.Push(load(0x200+32, 0, 2), 2)
	if a.Len() != 1 {
		t.Fatalf("entries = %d, want 1", a.Len())
	}
	e, _ := a.Pop()
	if len(e.targets) != 2 {
		t.Fatalf("merge after pop failed: %d targets", len(e.targets))
	}
	if e.fmap != WideMap(0).Set(0).Set(2) {
		t.Fatalf("flit map %s", e.fmap)
	}
}

func TestAggregatorFenceFreezesComparators(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x100, 0, 0), 0)
	a.Push(memreq.RawRequest{Fence: true}, 1)
	// Same row as the first entry, but behind a fence: no merge.
	a.Push(load(0x100+16, 0, 1), 2)
	if a.Len() != 3 {
		t.Fatalf("entries = %d, want 3 (entry, fence, entry)", a.Len())
	}
	e1, _ := a.Pop()
	if len(e1.targets) != 1 {
		t.Fatal("request behind fence merged across it")
	}
	f, _ := a.Pop()
	if !f.fence {
		t.Fatal("fence entry lost")
	}
	// After the fence pops, merging resumes: the new request merges
	// into the entry that was allocated during the freeze.
	a.Push(load(0x100+32, 0, 2), 3)
	if a.Len() != 1 {
		t.Fatalf("entries after fence = %d, want 1", a.Len())
	}
	e2, _ := a.Pop()
	if len(e2.targets) != 2 {
		t.Fatalf("post-fence merge failed: %d targets", len(e2.targets))
	}
}

func TestAggregatorAtomicNeverCoalesced(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x100, 0, 0), 0)
	a.Push(memreq.RawRequest{Addr: 0x100 + 16, Size: 8, Atomic: true, Thread: 1}, 1)
	a.Push(load(0x100+32, 0, 1), 2)
	if a.Len() != 2 {
		t.Fatalf("entries = %d, want 2", a.Len())
	}
	e, _ := a.Pop()
	if len(e.targets) != 2 {
		t.Fatal("loads around an atomic should still merge with each other")
	}
	at, _ := a.Pop()
	if !at.atomic || len(at.targets) != 1 {
		t.Fatalf("atomic entry wrong: %+v", at)
	}
}

func TestAggregatorTargetOverflowClosesEntry(t *testing.T) {
	cfg := DefaultAggregatorConfig()
	cfg.FillMode = false
	cfg.MaxTargets = 3
	a := NewAggregator(cfg)
	for i := 0; i < 5; i++ {
		a.Push(load(uint64(i*16), 0, uint16(i)), 0)
	}
	// First entry closed at 3 targets; a fresh entry took the rest.
	if a.Len() != 2 {
		t.Fatalf("entries = %d, want 2", a.Len())
	}
	e1, _ := a.Pop()
	e2, _ := a.Pop()
	if len(e1.targets) != 3 || len(e2.targets) != 2 {
		t.Fatalf("targets %d/%d, want 3/2", len(e1.targets), len(e2.targets))
	}
}

func TestAggregatorBackpressureWhenFull(t *testing.T) {
	cfg := DefaultAggregatorConfig()
	cfg.FillMode = false
	cfg.Entries = 2
	a := NewAggregator(cfg)
	if !a.Push(load(0x000, 0, 0), 0) || !a.Push(load(0x100, 0, 1), 1) {
		t.Fatal("initial pushes rejected")
	}
	if a.Push(load(0x200, 0, 2), 2) {
		t.Fatal("push into full ARQ accepted")
	}
	// But a merge into an existing entry still succeeds when full.
	if !a.Push(load(0x000+16, 0, 3), 3) {
		t.Fatal("merge rejected while full")
	}
	if a.Push(memreq.RawRequest{Fence: true}, 4) {
		t.Fatal("fence accepted into full ARQ")
	}
}

func TestAggregatorFillModeSkipsComparators(t *testing.T) {
	cfg := DefaultAggregatorConfig()
	cfg.Entries = 8
	cfg.FillMode = true
	a := NewAggregator(cfg)
	// ARQ empty: free (8) > half (4), so fill mode arms with N=8 and
	// the next 8 pushes allocate without comparing — even same-row.
	row := uint64(0x5) << addr.RowShift
	for i := 0; i < 4; i++ {
		if !a.Push(load(row+uint64(i*16), 0, uint16(i)), 0) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if a.Len() != 4 {
		t.Fatalf("fill mode merged anyway: %d entries", a.Len())
	}
}

func TestAggregatorFillModeDrainsThenMerges(t *testing.T) {
	cfg := DefaultAggregatorConfig()
	cfg.Entries = 4
	cfg.FillMode = true
	a := NewAggregator(cfg)
	row := uint64(0x5) << addr.RowShift
	// Budget arms at 4; first 4 pushes fill entries 0..3.
	for i := 0; i < 4; i++ {
		a.Push(load(row+uint64(i*16), 0, uint16(i)), 0)
	}
	// Budget exhausted and ARQ full; the next same-row push merges.
	if !a.Push(load(row+4*16, 0, 9), 0) {
		t.Fatal("merge after fill mode rejected")
	}
	if a.Len() != 4 {
		t.Fatalf("entries = %d, want 4", a.Len())
	}
}

func TestAggregatorBypassBitSingleRequest(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x300, 3, 7), 0)
	e, _ := a.Pop()
	if !e.bypass {
		t.Fatal("single-request entry must set B at pop")
	}
	if e.raw.Thread != 3 || e.raw.Tag != 7 {
		t.Fatal("raw request not preserved for bypass")
	}
}

func TestAggregatorOccupancyTracking(t *testing.T) {
	// Occupancy is a per-cycle time average (sampled by the MAC every
	// Tick via SampleOccupancy), not a per-push one — so drain phases
	// with no pushes still weigh into the mean.
	a := newAgg(t)
	a.SampleOccupancy() // cycle 0: empty
	a.Push(load(0x000, 0, 0), 0)
	a.SampleOccupancy() // cycle 1: one entry
	a.Push(load(0x100, 0, 1), 1)
	a.SampleOccupancy() // cycle 2: two entries (drain phase, no push)
	a.SampleOccupancy() // cycle 3: still two entries
	want := (0.0 + 1 + 2 + 2) / 4
	if got := a.OccupancyMean(); got != want {
		t.Fatalf("occupancy mean = %v, want %v", got, want)
	}
}

func TestAggregatorReset(t *testing.T) {
	a := newAgg(t)
	a.Push(load(0x100, 0, 0), 0)
	a.Push(memreq.RawRequest{Fence: true}, 1)
	a.SampleOccupancy()
	a.Reset()
	if a.Len() != 0 || a.OccupancyMean() != 0 || a.PeekFence() {
		t.Fatal("reset incomplete")
	}
	// Merging works again post-reset.
	a.Push(load(0x100, 0, 0), 0)
	a.Push(load(0x110, 0, 1), 1)
	if a.Len() != 1 {
		t.Fatal("merge broken after reset")
	}
}

func TestAggregatorSpaceBytes(t *testing.T) {
	// Figure 16 anchor points: 8 entries -> 512B, 256 -> 16KB.
	if (AggregatorConfig{Entries: 8}).SpaceBytes() != 512 {
		t.Fatal("8-entry ARQ space wrong")
	}
	if (AggregatorConfig{Entries: 256}).SpaceBytes() != 16*1024 {
		t.Fatal("256-entry ARQ space wrong")
	}
}

func TestAggregatorConfigValidate(t *testing.T) {
	bad := []AggregatorConfig{
		{Entries: 0, MaxTargets: 1, PopInterval: 1},
		{Entries: 1, MaxTargets: 0, PopInterval: 1},
		{Entries: 1, MaxTargets: 1, PopInterval: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultAggregatorConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregatorConservationProperty(t *testing.T) {
	// Property: every accepted memory request appears in exactly one
	// popped entry's target list, regardless of the push pattern.
	f := func(raws []uint16, fillMode bool) bool {
		cfg := DefaultAggregatorConfig()
		cfg.Entries = 8
		cfg.FillMode = fillMode
		a := NewAggregator(cfg)
		accepted := 0
		popped := 0
		push := func(i int, v uint16) {
			r := memreq.RawRequest{
				Addr:   uint64(v%64) * 16, // confined to 4 rows
				Size:   8,
				Store:  v%5 == 0,
				Thread: uint16(i),
				Tag:    uint16(i),
			}
			if v%17 == 0 {
				r = memreq.RawRequest{Fence: true}
			}
			if a.Push(r, 0) && !r.Fence {
				accepted++
			}
		}
		for i, v := range raws {
			push(i, v)
			if i%3 == 0 {
				if e, ok := a.Pop(); ok && !e.fence {
					popped += len(e.targets)
				}
			}
		}
		for {
			e, ok := a.Pop()
			if !ok {
				break
			}
			if !e.fence {
				popped += len(e.targets)
			}
		}
		return accepted == popped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
