package core

import (
	"testing"
	"testing/quick"

	"mac3d/internal/memreq"
	"mac3d/internal/sim"
)

func TestNewWindowGeometry(t *testing.T) {
	cases := []struct {
		bytes  uint32
		chunks int
		flits  int
	}{
		{256, 4, 16},
		{512, 8, 32},
		{1024, 16, 64},
	}
	for _, c := range cases {
		w, err := NewWindow(c.bytes)
		if err != nil {
			t.Fatal(err)
		}
		if w.Chunks() != c.chunks || w.Flits() != c.flits {
			t.Fatalf("%dB window: %d chunks, %d flits", c.bytes, w.Chunks(), w.Flits())
		}
	}
	for _, bad := range []uint32{0, 64, 128, 300, 2048} {
		if _, err := NewWindow(bad); err == nil {
			t.Fatalf("window %d accepted", bad)
		}
	}
}

func TestFlitMapSetHas(t *testing.T) {
	m := WideMap(0).Set(5)
	if !m.Has(5) || m.Count() != 1 {
		t.Fatalf("map = %s", m)
	}
	if m.String() != "0000010000000000" {
		t.Fatalf("Figure 6 example renders %s", m)
	}
}

func TestFlitMapSetRange(t *testing.T) {
	m := WideMap(0).SetRange(3, 6)
	for i := uint8(0); i < 64; i++ {
		if want := i >= 3 && i <= 6; m.Has(i) != want {
			t.Fatalf("bit %d = %v, want %v (map %s)", i, m.Has(i), want, m)
		}
	}
	// Reversed bounds are normalized.
	if WideMap(0).SetRange(6, 3) != m {
		t.Fatal("reversed range differs")
	}
}

func TestFlitMapGroups(t *testing.T) {
	cases := []struct {
		flits []uint8
		want  uint16
	}{
		{[]uint8{0}, 0b0001},
		{[]uint8{3}, 0b0001},
		{[]uint8{4}, 0b0010},
		{[]uint8{15}, 0b1000},
		{[]uint8{6, 8, 9}, 0b0110}, // the Figure 7/8 worked example
		{[]uint8{0, 5, 10, 15}, 0b1111},
	}
	for _, c := range cases {
		var m WideMap
		for _, f := range c.flits {
			m = m.Set(f)
		}
		if got := m.Groups(4); got != c.want {
			t.Fatalf("flits %v: groups = %04b, want %04b", c.flits, got, c.want)
		}
	}
}

// paperFlitTable is the paper's 16-entry FLIT table (§4.2.1, Fig. 8)
// written out entry by entry: for each 4-bit chunk pattern (bit i set
// when 64B chunk i of the 256B row holds a requested FLIT), the
// transaction payload and its first chunk. Entry 0 is never looked up.
var paperFlitTable = [16]struct {
	size uint32
	base uint8
}{
	0b0001: {64, 0}, 0b0010: {64, 1}, 0b0100: {64, 2}, 0b1000: {64, 3},
	0b0011: {128, 0}, 0b0110: {128, 1}, 0b1100: {128, 2},
	0b0101: {256, 0}, 0b0111: {256, 0}, 0b1001: {256, 0}, 0b1010: {256, 0},
	0b1011: {256, 0}, 0b1101: {256, 0}, 0b1110: {256, 0}, 0b1111: {256, 0},
}

// TestFlitTableMatchesPaper is the FLIT-table oracle: for every one of
// the 65,535 non-empty FLIT maps of a 256B row, the live path must
// OR-reduce the map to the right chunk groups, look up the paper's
// table entry, and emit a transaction of that size and start that
// covers every requested FLIT.
func TestFlitTableMatchesPaper(t *testing.T) {
	w, _ := NewWindow(256)
	const row = 0x4200
	tag := w.Tag(row, false)
	bld := NewBuilder(w)
	now := sim.Cycle(0)
	for raw := 1; raw <= 0xFFFF; raw++ {
		m := WideMap(raw)
		var groups uint16
		for f := uint8(0); f < 16; f++ {
			if m.Has(f) {
				groups |= 1 << (f / 4)
			}
		}
		if got := m.Groups(4); got != groups {
			t.Fatalf("map %016b: groups %04b, want %04b", raw, got, groups)
		}
		want := paperFlitTable[groups]
		if e := w.WideLookup(groups); e.SizeBytes != want.size || e.BaseChunk != want.base {
			t.Fatalf("pattern %04b: table entry %+v, want %dB at chunk %d", groups, e, want.size, want.base)
		}

		bld.Accept(arqEntry{tag: tag, fmap: m}, now)
		var b memreq.Built
		for ok := false; !ok; {
			now++
			b, ok = bld.Tick(now)
		}
		start := uint64(row) + uint64(want.base)*64
		if b.Req.Addr != start || b.Req.Data != want.size {
			t.Fatalf("map %016b: built %dB at %#x, want %dB at %#x", raw, b.Req.Data, b.Req.Addr, want.size, start)
		}
		for f := uint8(0); f < 16; f++ {
			a := uint64(row) + uint64(f)*16
			if m.Has(f) && (a < b.Req.Addr || a+16 > b.Req.Addr+uint64(b.Req.Data)) {
				t.Fatalf("map %016b: FLIT %d outside the %dB transaction at %#x", raw, f, b.Req.Data, b.Req.Addr)
			}
		}
	}
}

func TestWideMapMatchesFlitMapAt256(t *testing.T) {
	// The 256B window must agree with the paper's 16-bit FLIT map read
	// as four nibbles (§4.1.1, Fig. 6): chunk i is requested when any
	// of FLITs 4i..4i+3 is, and the window is the table's entry.
	w, _ := NewWindow(256)
	for raw := 1; raw <= 0xFFFF; raw++ {
		var groups uint16
		for i := 0; i < 4; i++ {
			if raw>>(4*i)&0xF != 0 {
				groups |= 1 << i
			}
		}
		m := WideMap(raw)
		if got := m.Groups(4); got != groups {
			t.Fatalf("map %016b: groups %04b, want %04b", raw, got, groups)
		}
		want := paperFlitTable[groups]
		if off, size := w.CoverWindowWide(m); off != uint32(want.base)*64 || size != want.size {
			t.Fatalf("map %016b: window (%d,%d), want %dB at chunk %d", raw, off, size, want.size, want.base)
		}
	}
}

func TestFlitTablePaperExample(t *testing.T) {
	// Figure 8: pattern 0110 -> 128B transaction (chunks 1-2).
	w, _ := NewWindow(256)
	if e := w.WideLookup(0b0110); e.SizeBytes != 128 || e.BaseChunk != 1 {
		t.Fatalf("0110 -> %+v, want 128B at chunk 1", e)
	}
}

func TestFlitTableSizes(t *testing.T) {
	w, _ := NewWindow(256)
	cases := map[uint16]uint32{
		0b0001: 64, 0b0010: 64, 0b0100: 64, 0b1000: 64,
		0b0011: 128, 0b0110: 128, 0b1100: 128,
		0b0101: 256, 0b1010: 256, 0b1001: 256,
		0b0111: 256, 0b1110: 256, 0b1011: 256, 0b1101: 256, 0b1111: 256,
	}
	for p, want := range cases {
		if got := w.WideLookup(p).SizeBytes; got != want {
			t.Fatalf("pattern %04b: size %d, want %d", p, got, want)
		}
	}
}

func TestFlitTableWindowInRow(t *testing.T) {
	w, _ := NewWindow(256)
	for p := uint16(1); p < 16; p++ {
		if e := w.WideLookup(p); uint32(e.BaseChunk)*64+e.SizeBytes > 256 {
			t.Fatalf("pattern %04b window overruns row: %+v", p, e)
		}
	}
}

func TestLookupPanicsOnEmptyPattern(t *testing.T) {
	w, _ := NewWindow(256)
	defer func() {
		if recover() == nil {
			t.Fatal("WideLookup(0) did not panic")
		}
	}()
	w.WideLookup(0)
}

func TestCoversInvariant(t *testing.T) {
	// Property: the 256B window always covers every requested FLIT —
	// responses can always satisfy all merged targets.
	w, _ := NewWindow(256)
	f := func(raw uint16) bool {
		return raw == 0 || w.CoversWide(WideMap(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// And exhaustively, since there are only 65536 maps.
	for raw := 1; raw <= 0xFFFF; raw++ {
		if !w.CoversWide(WideMap(raw)) {
			t.Fatalf("map %016b not covered by its window", raw)
		}
	}
}

func TestCoverWindowMinimalForSingleChunk(t *testing.T) {
	// A map confined to one chunk must produce exactly 64B at that
	// chunk — the builder's floor (§4.2).
	w, _ := NewWindow(256)
	for chunk := uint32(0); chunk < 4; chunk++ {
		off, size := w.CoverWindowWide(WideMap(0).Set(uint8(chunk*4 + 1)))
		if size != 64 || off != chunk*64 {
			t.Fatalf("chunk %d: window (%d,%d)", chunk, off, size)
		}
	}
}

func TestWideCoversInvariantAllWindows(t *testing.T) {
	for _, bytes := range []uint32{256, 512, 1024} {
		w, _ := NewWindow(bytes)
		f := func(raw uint64) bool {
			m := WideMap(raw) & (1<<w.Flits() - 1)
			if m == 0 {
				return true
			}
			return w.CoversWide(m)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%dB window: %v", bytes, err)
		}
	}
}

func TestWideTagSingleComparison(t *testing.T) {
	for _, bytes := range []uint32{256, 512, 1024} {
		w, _ := NewWindow(bytes)
		f := func(a, b uint64, sa, sb bool) bool {
			ta, tb := w.Tag(a, sa), w.Tag(b, sb)
			same := (a&^uint64(w.Bytes-1))&(1<<52-1) == (b&^uint64(w.Bytes-1))&(1<<52-1) && sa == sb
			return (ta == tb) == same
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%dB window: %v", bytes, err)
		}
	}
}

func TestWideTagBaseRoundTrip(t *testing.T) {
	for _, bytes := range []uint32{256, 512, 1024} {
		w, _ := NewWindow(bytes)
		f := func(a uint64, store bool) bool {
			base := w.TagBase(w.Tag(a, store))
			return base == a&(1<<52-1)&^uint64(w.Bytes-1) &&
				w.TagIsStore(w.Tag(a, store)) == store
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%dB window: %v", bytes, err)
		}
	}
}

func TestWideFlitSpanClipped(t *testing.T) {
	w, _ := NewWindow(1024)
	first, last := w.FlitSpan(1024-8, 16)
	if first != 63 || last != 63 {
		t.Fatalf("span [%d,%d], want [63,63]", first, last)
	}
	first, last = w.FlitSpan(8, 16)
	if first != 0 || last != 1 {
		t.Fatalf("span [%d,%d], want [0,1]", first, last)
	}
}

func TestWideLookupSizesPowerOfTwo(t *testing.T) {
	w, _ := NewWindow(1024)
	for p := 1; p < 1<<16; p++ {
		e := w.WideLookup(uint16(p))
		if e.SizeBytes&(e.SizeBytes-1) != 0 || e.SizeBytes < 64 || e.SizeBytes > 1024 {
			t.Fatalf("pattern %016b: size %d", p, e.SizeBytes)
		}
		if uint32(e.BaseChunk)*64+e.SizeBytes > 1024 {
			t.Fatalf("pattern %016b overruns window: %+v", p, e)
		}
	}
}

func TestMACWithWideWindowEndToEnd(t *testing.T) {
	// A 1KB window coalesces a 64-FLIT sequential burst into a
	// single 1KB transaction (given enough target capacity).
	cfg := DefaultConfig()
	cfg.ARQ.WindowBytes = 1024
	cfg.ARQ.FillMode = false
	cfg.ARQ.MaxTargets = 64
	m := MustNew(cfg)
	for i := 0; i < 64; i++ {
		m.Push(memreq.RawRequest{Addr: uint64(i * 16), Size: 16, Thread: uint16(i % 8), Tag: uint16(i)}, sim.Cycle(i))
	}
	out := runMAC(m, 300)
	if len(out) != 1 {
		t.Fatalf("transactions = %d, want 1", len(out))
	}
	if out[0].Req.Data != 1024 || len(out[0].Targets) != 64 {
		t.Fatalf("wide tx = %dB with %d targets", out[0].Req.Data, len(out[0].Targets))
	}
}

func TestMACWindowSizesProduceLegalTransactions(t *testing.T) {
	for _, bytes := range []uint32{256, 512, 1024} {
		cfg := DefaultConfig()
		cfg.ARQ.WindowBytes = bytes
		m := MustNew(cfg)
		rng := sim.NewRNG(9)
		now := sim.Cycle(0)
		for i := 0; i < 400; i++ {
			m.Push(memreq.RawRequest{
				Addr:   uint64(rng.Intn(1 << 15)),
				Size:   8,
				Store:  rng.Intn(3) == 0,
				Thread: uint16(i % 8),
				Tag:    uint16(i),
			}, now)
			for _, b := range m.Tick(now) {
				if b.Req.Data < 16 || b.Req.Data > bytes || b.Req.Data&(b.Req.Data-1) != 0 {
					t.Fatalf("window %d: illegal size %d", bytes, b.Req.Data)
				}
				bb := b
				m.Completed(&bb)
			}
			now++
		}
	}
}
