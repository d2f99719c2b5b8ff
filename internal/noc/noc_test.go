package noc

import (
	"fmt"
	"testing"

	"mac3d/internal/sim"
)

// drive runs f until every message in sends has been delivered (or
// maxCycles passes), feeding each send at its scheduled cycle and
// collecting deliveries in order. The sink accepts everything.
func drive[P any](t *testing.T, f Fabric[P], sends map[sim.Cycle][]Message[P], maxCycles sim.Cycle) []Message[P] {
	t.Helper()
	var got []Message[P]
	pending := 0
	for _, ms := range sends {
		pending += len(ms)
	}
	for now := sim.Cycle(0); now < maxCycles; now++ {
		for _, m := range sends[now] {
			if !f.Send(now, m) {
				t.Fatalf("cycle %d: Send(%+v) refused", now, m)
			}
		}
		f.Tick(now)
		f.Deliver(now, func(m Message[P]) bool {
			got = append(got, m)
			return true
		})
		if len(got) == pending && f.InFlight() == 0 {
			return got
		}
	}
	t.Fatalf("only %d/%d messages delivered after %d cycles (inflight %d)",
		len(got), pending, maxCycles, f.InFlight())
	return nil
}

func mustFabric(t *testing.T, cfg Config) Fabric[int] {
	t.Helper()
	f, err := New[int](cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return f
}

func TestIdealDeliversAtFixedLatency(t *testing.T) {
	f := mustFabric(t, Config{Topology: Ideal, Nodes: 4, LinkLatency: 10})
	var deliveredAt sim.Cycle
	f.Send(0, Message[int]{Src: 0, Dst: 3, Payload: 7})
	for now := sim.Cycle(0); now < 20; now++ {
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			deliveredAt = now
			if m.Payload != 7 {
				t.Fatalf("payload %d, want 7", m.Payload)
			}
			return true
		})
	}
	if deliveredAt != 10 {
		t.Fatalf("delivered at cycle %d, want 10", deliveredAt)
	}
	if st := f.Stats(); st.Delivered != 1 || st.NetLatency.Sum() != 10 {
		t.Fatalf("stats: delivered=%d latSum=%d", st.Delivered, st.NetLatency.Sum())
	}
}

// TestIdealRefusalPreservesSourceFIFO holds the ideal fabric to the
// per-source FIFO guarantee: when the sink refuses a message, younger
// messages from the same source must not pass it, even if their
// delivery cycle has come due.
func TestIdealRefusalPreservesSourceFIFO(t *testing.T) {
	f := mustFabric(t, Config{Topology: Ideal, Nodes: 2, LinkLatency: 1})
	f.Send(0, Message[int]{Src: 0, Dst: 1, Payload: 1})
	f.Send(1, Message[int]{Src: 0, Dst: 1, Payload: 2})
	var got []int
	refuseFirst := true
	for now := sim.Cycle(1); now < 10; now++ {
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			if m.Payload == 1 && refuseFirst {
				refuseFirst = false
				return false
			}
			got = append(got, m.Payload)
			return true
		})
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", got)
	}
	if st := f.Stats(); st.DeliverRetries == 0 {
		t.Fatal("expected DeliverRetries > 0")
	}
}

func TestRingShortestPathHops(t *testing.T) {
	// 8-node ring: 0→3 goes clockwise in 3 hops, 0→5 counterclockwise
	// in 3 hops, and the 0→4 tie goes clockwise in 4 hops.
	for _, tc := range []struct {
		dst, hops int
	}{{3, 3}, {5, 3}, {4, 4}, {7, 1}, {1, 1}} {
		f := mustFabric(t, Config{Topology: Ring, Nodes: 8, LinkLatency: 1})
		drive(t, f, map[sim.Cycle][]Message[int]{0: {{Src: 0, Dst: tc.dst}}}, 100)
		if h := f.Stats().Hops.Sum(); h != uint64(tc.hops) {
			t.Errorf("0→%d took %d hops, want %d", tc.dst, h, tc.hops)
		}
	}
}

func TestMeshXYHopsAreManhattan(t *testing.T) {
	// 3x3 mesh: hops(src,dst) must equal the Manhattan distance.
	for src := 0; src < 9; src++ {
		for dst := 0; dst < 9; dst++ {
			f := mustFabric(t, Config{Topology: Mesh, Nodes: 9, LinkLatency: 1})
			drive(t, f, map[sim.Cycle][]Message[int]{0: {{Src: src, Dst: dst}}}, 100)
			sx, sy := src%3, src/3
			dx, dy := dst%3, dst/3
			want := abs(sx-dx) + abs(sy-dy)
			if h := f.Stats().Hops.Sum(); h != uint64(want) {
				t.Errorf("%d→%d took %d hops, want %d", src, dst, h, want)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestMeshChainForPrimeNodeCount(t *testing.T) {
	// 5 nodes is prime: the mesh degenerates to a 1x5 chain, and
	// 0→4 takes 4 hops.
	f := mustFabric(t, Config{Topology: Mesh, Nodes: 5, LinkLatency: 1})
	drive(t, f, map[sim.Cycle][]Message[int]{0: {{Src: 0, Dst: 4}}}, 100)
	if h := f.Stats().Hops.Sum(); h != 4 {
		t.Fatalf("0→4 on a 1x5 chain took %d hops, want 4", h)
	}
}

func TestFlitSerializationOccupiesLink(t *testing.T) {
	// bw=1: a 4-flit message holds its link for 4 cycles, so two
	// back-to-back sends from node 0 to its ring neighbour deliver 4
	// cycles apart.
	f := mustFabric(t, Config{Topology: Ring, Nodes: 4, LinkLatency: 2, LinkBandwidth: 1})
	var at []sim.Cycle
	f.Send(0, Message[int]{Src: 0, Dst: 1, Flits: 4, Payload: 1})
	f.Send(0, Message[int]{Src: 0, Dst: 1, Flits: 4, Payload: 2})
	for now := sim.Cycle(0); now < 40 && len(at) < 2; now++ {
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			at = append(at, now)
			return true
		})
	}
	if len(at) != 2 || at[1]-at[0] != 4 {
		t.Fatalf("deliveries at %v, want 4 cycles apart", at)
	}
	if busy := f.Stats().Links[0].BusyCycles; busy != 8 {
		t.Fatalf("link 0 busy %d cycles, want 8", busy)
	}
}

// TestCreditBackpressure dams a 4-node ring at node 2 (the sink
// refuses every delivery for a while): node 2's ejection and input
// buffers fill, credits on the links into it run dry, and the stall
// backpressures hop by hop. Once the dam opens, everything must drain
// in per-(src,dst) FIFO order with credit stalls on the books.
func TestCreditBackpressure(t *testing.T) {
	f := mustFabric(t, Config{
		Topology: Ring, Nodes: 4, LinkLatency: 1,
		LinkBandwidth: 1, BufferFlits: 2 * MaxMessageFlits, InjectDepth: 64,
	})
	total := 0
	var got []Message[int]
	for now := sim.Cycle(0); now < 5000; now++ {
		if now < 20 {
			for _, src := range []int{0, 1, 3} {
				if f.Send(now, Message[int]{Src: src, Dst: 2, Flits: 2, Payload: src*1000 + int(now)}) {
					total++
				}
			}
		}
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			if now < 200 {
				return false // dam closed
			}
			got = append(got, m)
			return true
		})
		if now > 200 && len(got) == total && f.InFlight() == 0 {
			break
		}
	}
	if len(got) != total || total == 0 {
		t.Fatalf("delivered %d, want %d", len(got), total)
	}
	last := map[[2]int]int{}
	for _, m := range got {
		key := [2]int{m.Src, m.Dst}
		if prev, ok := last[key]; ok && m.Payload <= prev {
			t.Fatalf("FIFO violation on %v: %d after %d", key, m.Payload, prev)
		}
		last[key] = m.Payload
	}
	if credit, _ := f.Stats().StallCycles(); credit == 0 {
		t.Fatal("expected credit stalls behind the dam")
	}
}

// TestRingAllToAllDrains saturates an 8-node ring with all-to-all
// traffic and tight buffers; the critical-bubble injection control
// must keep it deadlock-free to full drain.
func TestRingAllToAllDrains(t *testing.T) {
	f := mustFabric(t, Config{
		Topology: Ring, Nodes: 8, LinkLatency: 1,
		LinkBandwidth: 1, BufferFlits: 2 * MaxMessageFlits, InjectDepth: 256,
	})
	sends := map[sim.Cycle][]Message[int]{}
	for round := 0; round < 8; round++ {
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				if src == dst {
					continue
				}
				sends[sim.Cycle(round)] = append(sends[sim.Cycle(round)],
					Message[int]{Src: src, Dst: dst, Flits: MaxMessageFlits})
			}
		}
	}
	drive(t, f, sends, 50000)
}

func TestChaosLinkStallDelaysTraffic(t *testing.T) {
	f := mustFabric(t, Config{Topology: Ring, Nodes: 4, LinkLatency: 1})
	f.StallLink(0, 50) // link 0 is node 0's clockwise output
	f.Send(0, Message[int]{Src: 0, Dst: 1})
	var deliveredAt sim.Cycle
	for now := sim.Cycle(0); now < 100 && deliveredAt == 0; now++ {
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			deliveredAt = now
			return true
		})
	}
	if deliveredAt < 50 {
		t.Fatalf("delivered at %d despite link stalled until 50", deliveredAt)
	}
	if _, chaos := f.Stats().StallCycles(); chaos == 0 {
		t.Fatal("expected chaos stalls to be counted")
	}
	// Out-of-range ids must be ignored, not panic.
	f.StallLink(-1, 10)
	f.StallLink(1<<20, 10)
}

func TestInjectionRejectsWhenQueueFull(t *testing.T) {
	f := mustFabric(t, Config{Topology: Ring, Nodes: 4, LinkLatency: 1, InjectDepth: 2})
	ok := 0
	for i := 0; i < 5; i++ {
		if f.Send(0, Message[int]{Src: 0, Dst: 2}) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d sends, want 2 (InjectDepth)", ok)
	}
	if st := f.Stats(); st.InjectRejects != 3 {
		t.Fatalf("InjectRejects=%d, want 3", st.InjectRejects)
	}
}

// TestRoutedDeterminism runs the same congested traffic twice and
// requires identical delivery traces and stats.
func TestRoutedDeterminism(t *testing.T) {
	for _, topo := range []string{Ring, Mesh} {
		run := func() ([]Message[int], Stats) {
			f := mustFabric(t, Config{
				Topology: topo, Nodes: 8, LinkLatency: 3,
				LinkBandwidth: 1, BufferFlits: 8, InjectDepth: 32,
			})
			sends := map[sim.Cycle][]Message[int]{}
			seed := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < 200; i++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				src := int(seed>>33) % 8
				dst := int(seed>>45) % 8
				sends[sim.Cycle(i%17)] = append(sends[sim.Cycle(i%17)],
					Message[int]{Src: src, Dst: dst, Flits: 1 + int(seed>>60)%MaxMessageFlits, Payload: i})
			}
			got := drive(t, f, sends, 50000)
			return got, *f.Stats()
		}
		g1, s1 := run()
		g2, s2 := run()
		if fmt.Sprint(g1) != fmt.Sprint(g2) {
			t.Fatalf("%s: delivery traces differ between identical runs", topo)
		}
		if fmt.Sprint(s1) != fmt.Sprint(s2) {
			t.Fatalf("%s: stats differ between identical runs", topo)
		}
	}
}

func TestZeroHopDelivery(t *testing.T) {
	f := mustFabric(t, Config{Topology: Mesh, Nodes: 4, LinkLatency: 5})
	got := drive(t, f, map[sim.Cycle][]Message[int]{3: {{Src: 2, Dst: 2, Payload: 9}}}, 100)
	if got[0].Payload != 9 {
		t.Fatalf("payload %d, want 9", got[0].Payload)
	}
	if h := f.Stats().Hops.Sum(); h != 0 {
		t.Fatalf("src==dst took %d hops, want 0", h)
	}
}

// TestConfigStringParseRoundTrip checks that WithDefaults is
// idempotent: a defaulted config is already canonical.
func TestConfigStringParseRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{Topology: Ideal, Nodes: 2, LinkLatency: 330, LinkBandwidth: 2},
		{Topology: Ring, Nodes: 8, LinkLatency: 83, LinkBandwidth: 4, BufferFlits: 32, InjectDepth: 16},
		{Topology: Mesh, Nodes: 16, LinkLatency: 10, LinkBandwidth: 2, BufferFlits: 64, InjectDepth: 8, MeshCols: 8},
		{Topology: Mesh}, // defaults
	} {
		once := cfg.WithDefaults()
		if twice := once.WithDefaults(); twice != once {
			t.Errorf("WithDefaults(%+v) = %+v, applied again %+v", cfg, once, twice)
		}
	}
}

// TestParseConfigRejects checks that Validate refuses the bad configs a
// Config can express.
func TestParseConfigRejects(t *testing.T) {
	for name, c := range map[string]Config{
		"unknown topology":      {Topology: "torus", Nodes: 4},
		"nodes over bound":      {Topology: Ring, Nodes: 99999},
		"buffer under two msgs": {Topology: Ring, Nodes: 4, BufferFlits: 1},
		"cols do not divide":    {Topology: Mesh, Nodes: 4, MeshCols: 3},
	} {
		if err := c.WithDefaults().Validate(); err == nil {
			t.Errorf("%s: Validate(%+v) accepted, want error", name, c.WithDefaults())
		}
	}
}

// TestParseConfigAliases checks that WithDefaults canonicalizes every
// spelling of the ideal crossbar.
func TestParseConfigAliases(t *testing.T) {
	for _, s := range []string{"", "crossbar", "xbar", " IDEAL "} {
		if got := (Config{Topology: s}).WithDefaults().Topology; got != Ideal {
			t.Errorf("WithDefaults(Topology %q).Topology = %q, want ideal", s, got)
		}
	}
}

func TestValidateBounds(t *testing.T) {
	base := DefaultConfig()
	bad := []Config{
		{}, // zero value: unknown topology
		func() Config { c := base; c.Nodes = 0; return c }(),
		func() Config { c := base; c.Nodes = 2048; return c }(),
		func() Config { c := base; c.LinkBandwidth = 0; return c }(),
		func() Config { c := base; c.Topology = Ring; c.BufferFlits = MaxMessageFlits; return c }(),
		func() Config { c := base; c.Topology = Mesh; c.MeshCols = 3; c.Nodes = 4; return c }(),
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted, want error", c)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("Validate(default) = %v", err)
	}
}

func TestMeshColsShapesTopology(t *testing.T) {
	// 8 nodes as 2x4 (default most-square) vs 1x8 via cols=8: the
	// corner-to-corner hop count differs (3+1=4 vs 7).
	f := mustFabric(t, Config{Topology: Mesh, Nodes: 8, LinkLatency: 1})
	drive(t, f, map[sim.Cycle][]Message[int]{0: {{Src: 0, Dst: 7}}}, 200)
	if h := f.Stats().Hops.Sum(); h != 4 {
		t.Fatalf("2x4 corner hops = %d, want 4", h)
	}
	f = mustFabric(t, Config{Topology: Mesh, Nodes: 8, LinkLatency: 1, MeshCols: 8})
	drive(t, f, map[sim.Cycle][]Message[int]{0: {{Src: 0, Dst: 7}}}, 200)
	if h := f.Stats().Hops.Sum(); h != 7 {
		t.Fatalf("1x8 corner hops = %d, want 7", h)
	}
}
