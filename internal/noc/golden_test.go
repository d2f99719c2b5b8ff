package noc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mac3d/internal/sim"
)

// goldenTraffic drives f with seeded random traffic and renders every
// delivery (cycle, source, destination, flits, payload id) followed by
// the complete Stats. Each node draws at most one new message per
// cycle (an eighth of them to itself) into its own backlog and offers
// the backlog oldest-first until Send refuses; link 3 is frozen for
// cycles 40–120; the sink refuses every third offer. Traffic stops at
// cycle 400 and the fabric then drains.
func goldenTraffic(t *testing.T, cfg Config, seed uint64) string {
	t.Helper()
	f, err := New[int](cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	backlog := make([][]Message[int], cfg.Nodes)
	var b strings.Builder
	id, offers, waiting := 0, 0, 0
	for now := sim.Cycle(0); ; now++ {
		if now > 100000 {
			t.Fatalf("not drained after %d cycles: inflight %d, backlog %d", now, f.InFlight(), waiting)
		}
		if now == 40 {
			f.StallLink(3, 120)
		}
		for n := 0; n < cfg.Nodes; n++ {
			if now < 400 && rng.Intn(3) == 0 {
				dst := rng.Intn(cfg.Nodes)
				if rng.Intn(8) == 0 {
					dst = n
				}
				backlog[n] = append(backlog[n], Message[int]{Src: n, Dst: dst, Flits: 1 + rng.Intn(MaxMessageFlits), Payload: id})
				id++
				waiting++
			}
			for len(backlog[n]) > 0 && f.Send(now, backlog[n][0]) {
				backlog[n] = backlog[n][1:]
				waiting--
			}
		}
		f.Tick(now)
		f.Deliver(now, func(m Message[int]) bool {
			offers++
			if offers%3 == 0 {
				return false
			}
			fmt.Fprintf(&b, "%d %d>%d f%d #%d\n", now, m.Src, m.Dst, m.Flits, m.Payload)
			return true
		})
		if now >= 400 && waiting == 0 && f.InFlight() == 0 {
			break
		}
	}
	st := f.Stats()
	fmt.Fprintf(&b, "topology=%s sent=%d delivered=%d flits=%d inject_rejects=%d deliver_retries=%d\n",
		st.Topology, st.Sent, st.Delivered, st.FlitsSent, st.InjectRejects, st.DeliverRetries)
	fmt.Fprintf(&b, "hops=%v\nlatency=%v\n", st.Hops, st.NetLatency)
	for i, l := range st.Links {
		fmt.Fprintf(&b, "link %d %+v\n", i, l)
	}
	return b.String()
}

// TestRoutedGolden holds the ring and mesh engines to delivery logs
// and statistics captured before their queues moved onto
// internal/queue rings. Tight buffers, a one-deep injection queue and
// one-flit links make every backpressure path fire: credit stalls,
// injection refusals, ejection-buffer refusals, chaos stalls and sink
// refusals.
func TestRoutedGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		cfg  Config
	}{
		{"golden-ring6.txt", Config{Topology: Ring, Nodes: 6, LinkLatency: 2, LinkBandwidth: 1, BufferFlits: 8, InjectDepth: 1}},
		{"golden-mesh9.txt", Config{Topology: Mesh, Nodes: 9, LinkLatency: 2, LinkBandwidth: 1, BufferFlits: 8, InjectDepth: 1}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			got := goldenTraffic(t, tc.cfg, 11)
			raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want := string(raw)
			if got == want {
				return
			}
			g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, g[i], w[i])
				}
			}
			t.Fatalf("got %d lines, want %d", len(g), len(w))
		})
	}
}
