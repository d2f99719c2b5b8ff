package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	cases := map[Op]string{Load: "LD", Store: "ST", Fence: "FENCE", Atomic: "AMO"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Fatalf("%v.String() = %q, want %q", uint8(op), got, want)
		}
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Fatal("unknown op string should carry the value")
	}
}

func TestOpClassification(t *testing.T) {
	if !Load.IsMemory() || !Store.IsMemory() || !Atomic.IsMemory() {
		t.Fatal("loads/stores/atomics are memory ops")
	}
	if Fence.IsMemory() {
		t.Fatal("fence is not a memory op")
	}
	for _, op := range []Op{Load, Store, Fence, Atomic} {
		if !op.Valid() {
			t.Fatalf("%v should be valid", op)
		}
	}
	if Op(200).Valid() {
		t.Fatal("op 200 should be invalid")
	}
}

func TestTraceAppendGrowsThreads(t *testing.T) {
	tr := NewTrace(1)
	tr.Append(Event{Thread: 5, Op: Load, Addr: 64, Size: 8})
	if tr.NumThreads() != 6 {
		t.Fatalf("threads = %d, want 6", tr.NumThreads())
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
	if len(tr.Threads[5]) != 1 || tr.Threads[5][0].Addr != 64 {
		t.Fatal("event not stored under its thread")
	}
}

func TestComputeStats(t *testing.T) {
	tr := NewTrace(2)
	tr.Append(Event{Thread: 0, Op: Load, Addr: 0x100, Size: 8, Gap: 3})
	tr.Append(Event{Thread: 0, Op: Store, Addr: 0x108, Size: 8, Gap: 1})
	tr.Append(Event{Thread: 1, Op: Fence})
	tr.Append(Event{Thread: 1, Op: Atomic, Addr: 0x4100, Size: 8})
	s := ComputeStats(tr)
	if s.Events != 4 || s.Loads != 1 || s.Stores != 1 || s.Fences != 1 || s.Atomics != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.MemRefs != 3 {
		t.Fatalf("memrefs = %d, want 3", s.MemRefs)
	}
	// instructions = gaps (3+1+0+0) + 3 memory instructions
	if s.Instructions != 7 {
		t.Fatalf("instructions = %d, want 7", s.Instructions)
	}
	if s.RPI != 3.0/7.0 {
		t.Fatalf("RPI = %v", s.RPI)
	}
	// rows: 0x100>>8=1 (two accesses), 0x4100>>8=0x41 -> 2 unique
	if s.UniqueRows != 2 {
		t.Fatalf("unique rows = %d, want 2", s.UniqueRows)
	}
	if s.Footprint != 0x4100-0x100+1 {
		t.Fatalf("footprint = %d", s.Footprint)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(NewTrace(0))
	if s.Events != 0 || s.RPI != 0 || s.Footprint != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	events := []Event{
		{Op: Load, Addr: 0x1234_5678_9ABC, Thread: 3, Core: 1, Size: 8, Gap: 12},
		{Op: Store, Addr: 0, Thread: 0, Core: 0, Size: 1, Gap: 0},
		{Op: Fence, Thread: 65535, Core: 255, Gap: 255},
		{Op: Atomic, Addr: (1 << 51) - 1, Thread: 42, Size: 16},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("writer count = %d", w.Count())
	}

	r := NewReader(&buf)
	for i, want := range events {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(op uint8, addrBits uint64, thread uint16, core, size, gap uint8) bool {
		e := Event{
			Op:     Op(op % 4),
			Addr:   addrBits & ((1 << 52) - 1),
			Thread: thread,
			Core:   core,
			Size:   size,
			Gap:    gap,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(e); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRebuildsThreadStreams(t *testing.T) {
	src := NewTrace(2)
	src.Append(Event{Thread: 0, Op: Load, Addr: 16, Size: 8})
	src.Append(Event{Thread: 1, Op: Load, Addr: 32, Size: 8})
	src.Append(Event{Thread: 0, Op: Store, Addr: 48, Size: 8})
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTrace(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || len(got.Threads[0]) != 2 || len(got.Threads[1]) != 1 {
		t.Fatalf("rebuilt trace shape wrong: %d events", got.Len())
	}
	if got.Threads[0][1].Op != Store {
		t.Fatal("per-thread order lost")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	_, err := NewReader(strings.NewReader("not a trace file")).Read()
	if err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Event{Op: Load, Addr: 1 << 40, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(cut))
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated record: err = %v, want format error", err)
	}
}

func TestReaderRejectsInvalidOp(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Event{Op: Load, Addr: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5] = 200 // corrupt op byte (after 5-byte header)
	if _, err := NewReader(bytes.NewReader(raw)).Read(); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestEmptyFileHasHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(&buf).ReadTrace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("empty file produced %d events", tr.Len())
	}
}

func TestTextRoundTrip(t *testing.T) {
	events := []Event{
		{Op: Load, Addr: 0x1a40, Thread: 3, Core: 1, Size: 8, Gap: 12},
		{Op: Fence, Thread: 2},
		{Op: Atomic, Addr: 0xfff0, Thread: 9, Size: 8, Gap: 1},
	}
	for _, e := range events {
		got, err := ParseText(FormatText(e))
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		if got != e {
			t.Fatalf("round trip: got %+v want %+v", got, e)
		}
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"",
		"LD t1 c0 0x10 8",         // missing gap
		"XX t1 c0 0x10 8 g0",      // bad op
		"LD tx c0 0x10 8 g0",      // bad thread
		"LD t1 cx 0x10 8 g0",      // bad core
		"LD t1 c0 0xzz 8 g0",      // bad addr
		"LD t1 c0 0x10 yy g0",     // bad size
		"LD t1 c0 0x10 8 gx",      // bad gap
		"LD t1 c0 0x10 8 g0 more", // trailing field
	}
	for _, s := range bad {
		if _, err := ParseText(s); err == nil {
			t.Fatalf("ParseText(%q) accepted", s)
		}
	}
}

// TestReadTraceAllocations pins the decoder's allocations: a fixed
// number per thread stream as it doubles, none per record.
func TestReadTraceAllocations(t *testing.T) {
	const threads, perThread = 4, 20000
	tr := NewTrace(threads)
	for i := 0; i < perThread; i++ {
		for th := 0; th < threads; th++ {
			tr.Append(Event{Thread: uint16(th), Addr: uint64(i) * 64, Size: 8, Gap: uint8(i), Op: Op(i % int(numOps))})
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var got *Trace
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if got, err = NewReader(bytes.NewReader(data)).ReadTrace(); err != nil {
			t.Fatal(err)
		}
	})
	if got.Len() != threads*perThread {
		t.Fatalf("decoded %d events, want %d", got.Len(), threads*perThread)
	}
	t.Logf("decoding %d events: %v allocations", threads*perThread, allocs)
	// Per thread, doubling from 256 to 32768 slots is 8 allocations.
	if max := float64(threads*8 + 16); allocs > max {
		t.Fatalf("decoding %d events made %v allocations, want at most %v", threads*perThread, allocs, max)
	}
}
