package memreq

import (
	"strings"
	"testing"

	"mac3d/internal/hmc"
)

func TestStatsCoalescingEfficiency(t *testing.T) {
	s := NewStats()
	if s.CoalescingEfficiency() != 0 {
		t.Fatal("empty stats must report 0")
	}
	s.RawRequests = 100
	s.Transactions = 47
	if got := s.CoalescingEfficiency(); got != 0.53 {
		t.Fatalf("efficiency = %v, want 0.53", got)
	}
	// The no-coalescing case.
	s.Transactions = 100
	if got := s.CoalescingEfficiency(); got != 0 {
		t.Fatalf("1:1 efficiency = %v", got)
	}
}

func TestStatsAvgTargets(t *testing.T) {
	s := NewStats()
	s.TargetsPerTx.Observe(1)
	s.TargetsPerTx.Observe(3)
	if got := s.AvgTargetsPerTx(); got != 2 {
		t.Fatalf("avg targets = %v", got)
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.RawRequests = 10
	s.Transactions = 5
	s.Bypassed = 2
	s.TargetsPerTx.Observe(2)
	out := s.String()
	for _, want := range []string{"raw=10", "tx=5", "bypassed=2", "50.00%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}

func TestBuiltCarriesRequest(t *testing.T) {
	b := Built{
		Req:     hmc.Request{Kind: hmc.Read, Addr: 0x100, Data: 64},
		Targets: []Target{{Thread: 1, Tag: 2, Flit: 3}},
	}
	if b.Req.DataFlits() != 4 {
		t.Fatalf("flits = %d", b.Req.DataFlits())
	}
	if b.Targets[0] != (Target{Thread: 1, Tag: 2, Flit: 3}) {
		t.Fatal("target not preserved")
	}
}

func TestTargetBytesMatchesPaper(t *testing.T) {
	// §4.1.1: 2B TID + 2B tag + 4b FLIT id = 4.5B, and a 64B entry
	// with 10B of address/map state holds 12 targets.
	if TargetBytes != 4.5 {
		t.Fatalf("TargetBytes = %v", TargetBytes)
	}
	if int(54/TargetBytes) != 12 {
		t.Fatal("64B entry capacity math broken")
	}
}

func TestRawRequestSpan(t *testing.T) {
	cases := []struct {
		addr uint64
		size uint8
		base uint64
		n    uint32
	}{
		{0x100, 8, 0x100, 16},
		{0x108, 8, 0x100, 16},  // ends on the FLIT boundary
		{0x10c, 8, 0x100, 32},  // crosses into the next FLIT
		{0x10f, 16, 0x100, 32}, // a full FLIT's worth, unaligned
		{0x13c, 8, 0x130, 32},  // crosses a 64B line end
		{0x105, 0, 0x100, 16},  // zero size counts as one byte
	}
	for _, c := range cases {
		base, n := RawRequest{Addr: c.addr, Size: c.size}.Span()
		if base != c.base || n != c.n {
			t.Errorf("Span(%#x, %d) = [%#x, +%d), want [%#x, +%d)", c.addr, c.size, base, n, c.base, c.n)
		}
	}
}

func TestTargetPoolRecycles(t *testing.T) {
	p := TargetPool{Cap: 4}
	b := Built{Targets: append(p.Take(), Target{Tag: 1})}
	if cap(b.Targets) != 4 {
		t.Fatalf("fresh slice cap %d, want 4", cap(b.Targets))
	}
	first := &b.Targets[0]
	p.Recycle(&b)
	if b.Targets != nil {
		t.Fatal("Recycle left the Built holding its slice")
	}
	if s := p.Take(); len(s) != 0 || &s[:1][0] != first {
		t.Fatal("Take did not hand back the recycled slice, emptied")
	}
	p.Recycle(&Built{}) // a zero-target Built has nothing to return
	if s := p.Take(); cap(s) != 4 {
		t.Fatal("zero-target Recycle pooled a slice")
	}
}
