package mac3d

import (
	"encoding/json"
	"testing"

	"mac3d/internal/cpu"
)

func TestDesignKindRoundTrip(t *testing.T) {
	// Design is cpu.CoalescerKind, so every registered kind is a
	// design; name parsing must round-trip through both layers.
	for _, d := range Designs() {
		back, err := ParseDesign(d.String())
		if err != nil {
			t.Fatalf("ParseDesign(%q): %v", d.String(), err)
		}
		if back != d {
			t.Fatalf("ParseDesign(%q) = %v, want %v", d.String(), back, d)
		}
		pk, err := cpu.ParseKind(d.String())
		if err != nil {
			t.Fatalf("cpu.ParseKind(%q): %v", d.String(), err)
		}
		if pk != d {
			t.Fatalf("cpu.ParseKind(%q) = %v, want %v", d.String(), pk, d)
		}
	}
	if _, err := ParseDesign("quantum"); err == nil {
		t.Fatal("unknown design name accepted")
	}
}

func TestDesignJSONRoundTrip(t *testing.T) {
	for _, d := range Designs() {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal %v: %v", d, err)
		}
		var back Design
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != d {
			t.Fatalf("JSON round trip of %v: got %v", d, back)
		}
	}
	var bad Design
	if err := json.Unmarshal([]byte(`"quantum"`), &bad); err == nil {
		t.Fatal("unknown design JSON accepted")
	}
}

func TestRunSelectsNewFrontends(t *testing.T) {
	// End-to-end: the facade runs both new designs and reports their
	// frontend-specific metrics.
	warp, err := Run(RunOptions{Workload: "sg", Threads: 4, Design: DesignWarp})
	if err != nil {
		t.Fatal(err)
	}
	if warp.Warp == nil || warp.Warp.WarpsFormed == 0 {
		t.Fatalf("warp report = %+v, want warp stats", warp.Warp)
	}
	if warp.MemCache != nil {
		t.Fatal("warp run carries memcache stats")
	}
	mcr, err := Run(RunOptions{Workload: "sg", Threads: 4, Design: DesignMemCache,
		Frontend: "split=0.25,cache=65536"})
	if err != nil {
		t.Fatal(err)
	}
	if mcr.MemCache == nil || mcr.MemCache.Hits+mcr.MemCache.Misses == 0 {
		t.Fatalf("memcache report = %+v, want cache demand", mcr.MemCache)
	}
	if mcr.Warp != nil {
		t.Fatal("memcache run carries warp stats")
	}
}

func TestRunRejectsBadFrontendTuning(t *testing.T) {
	if _, err := Run(RunOptions{Workload: "sg", Threads: 2, Design: DesignWarp,
		Frontend: "lanes=3"}); err == nil {
		t.Fatal("non-power-of-two lane count accepted")
	}
	if _, err := Run(RunOptions{Workload: "sg", Threads: 2,
		Frontend: "bogus=1"}); err == nil {
		t.Fatal("unknown tuning key accepted")
	}
}
