package numa

import (
	"testing"

	"mac3d/internal/chaos"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/sim"
)

// TestSaturatedRemoteQueueKeepsPerSourceFIFO runs the RAQ-saturating
// shape and asserts, via the router drain hook, that every node sees
// each thread's requests in issue (tag) order. The pre-NoC model
// violated this under saturation: a delivery refused by a full Remote
// Access Queue was re-queued one cycle out, and a younger same-source
// message due earlier could pop past it.
func TestSaturatedRemoteQueueKeepsPerSourceFIFO(t *testing.T) {
	s, err := NewSystem(saturatedCase.config())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(saturatedCase.tr()); err != nil {
		t.Fatal(err)
	}
	lastTag := map[[2]int]int{}
	for _, nd := range s.nodes {
		nd := nd
		nd.router.OnDrain = func(req memreq.RawRequest, _ sim.Cycle) {
			if req.Fence {
				return
			}
			key := [2]int{nd.id, int(req.Thread)}
			if prev, ok := lastTag[key]; ok && int(req.Tag) <= prev {
				t.Errorf("node %d drained thread %d tag %d after tag %d",
					nd.id, req.Thread, req.Tag, prev)
			}
			lastTag[key] = int(req.Tag)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NoC.DeliverRetries == 0 {
		t.Fatal("expected the Remote Access Queue to refuse deliveries in this run")
	}
}

// TestRingMeshDiverge runs the same 16-node workload on a ring and a
// mesh and requires the topologies to be distinguishable: different
// hop structure, different finish time, same completed work. This is
// the property the abl-noc experiment sweeps.
func TestRingMeshDiverge(t *testing.T) {
	run := func(topo string) *Result {
		cfg := DefaultConfig()
		cfg.Nodes = 16
		cfg.Tile.Node.Cores = 1
		cfg.NoC = noc.Config{Topology: topo, LinkLatency: 5, LinkBandwidth: 2}
		res, err := Run(cfg, goldTrace(16, 32))
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if got := res.RequestLatency.Count(); got != 16*32 {
			t.Fatalf("%s retired %d requests, want %d", topo, got, 16*32)
		}
		return res
	}
	ring := run(noc.Ring)
	mesh := run(noc.Mesh)
	if ring.Cycles == mesh.Cycles {
		t.Errorf("ring and mesh finished in the same %d cycles; topologies indistinguishable", ring.Cycles)
	}
	if ring.NoC.AvgHops() == mesh.NoC.AvgHops() {
		t.Errorf("ring and mesh report the same mean hop count %.3f", ring.NoC.AvgHops())
	}
	if len(ring.NoC.Links) != 32 { // 16 cw + 16 ccw
		t.Errorf("ring has %d links, want 32", len(ring.NoC.Links))
	}
	if len(mesh.NoC.Links) != 48 { // 4x4 mesh: 2*(3*4)*2 directed
		t.Errorf("mesh has %d links, want 48", len(mesh.NoC.Links))
	}
}

// TestChaosLinkStallsPerturbRun injects transient link stalls into a
// ring run and checks they are injected, accounted, and survivable.
func TestChaosLinkStallsPerturbRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	cfg.Tile.Node.Cores = 2
	cfg.NoC = noc.Config{Topology: noc.Ring, LinkLatency: 5, LinkBandwidth: 1}
	base, err := Run(cfg, goldTrace(8, 48))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tile.Chaos = chaos.Profile{LinkRate: 0.05, LinkStall: 200, Seed: 42}
	perturbed, err := Run(cfg, goldTrace(8, 48))
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Chaos == nil || perturbed.Chaos.LinkStalls == 0 {
		t.Fatalf("chaos stats = %v, want injected link stalls", perturbed.Chaos)
	}
	if _, chaosStalls := perturbed.NoC.StallCycles(); chaosStalls == 0 {
		t.Error("no chaos stall cycles accounted on any link")
	}
	if perturbed.Cycles < base.Cycles {
		t.Errorf("perturbed run finished earlier (%d) than baseline (%d)",
			perturbed.Cycles, base.Cycles)
	}
	if got := perturbed.RequestLatency.Count(); got != base.RequestLatency.Count() {
		t.Errorf("perturbed run retired %d requests, baseline %d", got,
			base.RequestLatency.Count())
	}
}
