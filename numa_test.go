package mac3d

import "testing"

func TestRunNUMADefaults(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{Workload: "sg"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 || rep.Threads != 8 {
		t.Fatalf("defaults not applied: %+v", rep)
	}
	if len(rep.PerNode) != 2 {
		t.Fatalf("per-node reports = %d", len(rep.PerNode))
	}
	if rep.RemoteFraction <= 0 || rep.RemoteFraction >= 1 {
		t.Fatalf("remote fraction = %v", rep.RemoteFraction)
	}
	if rep.AvgLatencyNs <= 0 {
		t.Fatal("no latency recorded")
	}
	for _, n := range rep.PerNode {
		if n.Transactions == 0 {
			t.Fatalf("node %d idle", n.Node)
		}
	}
}

func TestRunNUMASingleNodeLocalOnly(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{Workload: "sg", Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteRequests != 0 {
		t.Fatalf("single node had %d remote requests", rep.RemoteRequests)
	}
}

func TestRunNUMAInterconnectCost(t *testing.T) {
	near, err := RunNUMA(NUMAOptions{Workload: "sg", LinkLatencyNs: 10})
	if err != nil {
		t.Fatal(err)
	}
	far, err := RunNUMA(NUMAOptions{Workload: "sg", LinkLatencyNs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if far.AvgLatencyCycles <= near.AvgLatencyCycles {
		t.Fatalf("slow interconnect not visible: %v vs %v",
			far.AvgLatencyCycles, near.AvgLatencyCycles)
	}
}

func TestRunNUMAValidation(t *testing.T) {
	if _, err := RunNUMA(NUMAOptions{}); err == nil {
		t.Fatal("missing workload accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "bogus"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Scale: Scale(9)}); err == nil {
		t.Fatal("bad scale accepted")
	}
	// More threads per node than cores.
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Threads: 8, Nodes: 2, CoresPerNode: 1}); err == nil {
		t.Fatal("over-subscription accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", NoC: &NoCOptions{Topology: "torus"}}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Nodes: 4, NoC: &NoCOptions{Topology: "ring", Nodes: 8}}); err == nil {
		t.Fatal("disagreeing NoC node count accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", NoC: &NoCOptions{Topology: "ring", BufferFlits: 3}}); err == nil {
		t.Fatal("sub-message input buffer accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Nodes: 8, CoresPerNode: 1, NoC: &NoCOptions{Topology: "mesh", MeshCols: 3}}); err == nil {
		t.Fatal("non-dividing mesh width accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", NoC: &NoCOptions{Topology: "ring", LinkLatencyNs: -1}}); err == nil {
		t.Fatal("negative NoC latency accepted")
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Chaos: ChaosOptions{Profile: "quake=0.5"}}); err == nil {
		t.Fatal("unknown chaos stressor accepted")
	}
}

// TestRunNUMANoCReport runs a routed topology through the facade and
// checks the report carries the interconnect block.
func TestRunNUMANoCReport(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{
		Workload: "sg", Threads: 8, Nodes: 8, CoresPerNode: 1,
		NoC: &NoCOptions{Topology: "mesh", LinkLatencyNs: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := rep.NoC
	if n == nil {
		t.Fatal("report missing NoC block")
	}
	if n.Topology != "mesh" || n.Links != 20 { // 2x4 mesh: (2*3 + 4*1)*2 directed
		t.Fatalf("topology %q with %d links", n.Topology, n.Links)
	}
	if n.MessagesSent == 0 || n.FlitsSent < n.MessagesSent || n.AvgHops <= 1 {
		t.Fatalf("implausible traffic accounting: %+v", n)
	}
	if rep.Chaos != nil {
		t.Fatalf("chaos block without a profile: %+v", rep.Chaos)
	}
}

// TestRunNUMAIdealAliasEquivalence checks the flat LinkLatencyNs field
// and an explicit ideal NoC block describe the same machine.
func TestRunNUMAIdealAliasEquivalence(t *testing.T) {
	legacy, err := RunNUMA(NUMAOptions{Workload: "sg", LinkLatencyNs: 50})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunNUMA(NUMAOptions{
		Workload: "sg", LinkLatencyNs: 50,
		NoC: &NoCOptions{Topology: "ideal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Cycles != explicit.Cycles || legacy.AvgLatencyCycles != explicit.AvgLatencyCycles {
		t.Fatalf("alias and explicit ideal diverge: %d/%v vs %d/%v",
			legacy.Cycles, legacy.AvgLatencyCycles, explicit.Cycles, explicit.AvgLatencyCycles)
	}
	if legacy.NoC == nil || legacy.NoC.Topology != "ideal" {
		t.Fatalf("legacy run missing ideal NoC block: %+v", legacy.NoC)
	}
}

// TestRunNUMAChaosReport checks the link stressor reaches the fabric
// through the facade and is reported.
func TestRunNUMAChaosReport(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{
		Workload: "sg", Threads: 8, Nodes: 8, CoresPerNode: 1,
		NoC:   &NoCOptions{Topology: "ring", LinkLatencyNs: 5, LinkBandwidth: 1},
		Chaos: ChaosOptions{Profile: "link=0.05:200", Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chaos == nil || rep.Chaos.LinkStalls == 0 {
		t.Fatalf("link stressor left no trace: %+v", rep.Chaos)
	}
	if rep.NoC == nil || rep.NoC.ChaosStallCycles == 0 {
		t.Fatalf("no chaos stall cycles on any link: %+v", rep.NoC)
	}
}

// TestRunNUMACubeChaosReportPinned pins a 4-node ring run on routed,
// open-page cubes under the cubelink stressor: the cycle count and the
// cube and chaos blocks the report aggregates over every node.
func TestRunNUMACubeChaosReportPinned(t *testing.T) {
	rep, err := RunNUMA(NUMAOptions{
		Workload: "sg", Nodes: 4, CoresPerNode: 2,
		Cube:  "ring,page=open",
		Chaos: ChaosOptions{Profile: "cubelink=0.01:40", Seed: 3},
		NoC:   &NoCOptions{Topology: "ring"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 8480 {
		t.Errorf("cycles = %d, want 8480", rep.Cycles)
	}
	c := rep.Cube
	if c == nil {
		t.Fatal("report missing the cube block")
	}
	if c.Config != "ring,hop=2,bw=4,buf=64,inject=8,page=open" {
		t.Errorf("cube config = %q", c.Config)
	}
	if c.RowHits != 4224 || c.RowMisses != 192 || c.RowConflicts != 0 {
		t.Errorf("row hits/misses/conflicts = %d/%d/%d, want 4224/192/0",
			c.RowHits, c.RowMisses, c.RowConflicts)
	}
	if c.FabricSent != 8832 || c.FabricDelivered != 8832 || c.FabricStallCycles != 604 {
		t.Errorf("fabric sent/delivered/stalls = %d/%d/%d, want 8832/8832/604",
			c.FabricSent, c.FabricDelivered, c.FabricStallCycles)
	}
	ch := rep.Chaos
	if ch == nil {
		t.Fatal("report missing the chaos block")
	}
	if ch.Profile != "cubelink=0.01:40,seed=3" || ch.CubeLinkStalls != 65 {
		t.Errorf("chaos = %q with %d cube-link stalls, want cubelink=0.01:40,seed=3 with 65",
			ch.Profile, ch.CubeLinkStalls)
	}
}

// TestRunNUMAFrontendTuning runs a tuned warp frontend on every node:
// the tuning must reach the nodes (the run differs from the untuned
// one) and partial tuning must keep the other fields at their defaults.
func TestRunNUMAFrontendTuning(t *testing.T) {
	base, err := RunNUMA(NUMAOptions{Workload: "sg", Design: DesignWarp})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunNUMA(NUMAOptions{Workload: "sg", Design: DesignWarp, Frontend: "warps=8"})
	if err != nil {
		t.Fatalf("tuned warp run: %v", err)
	}
	if tuned.Cycles == base.Cycles {
		t.Errorf("tuned and untuned warp runs both took %d cycles", base.Cycles)
	}
	if _, err := RunNUMA(NUMAOptions{Workload: "sg", Design: DesignMemCache, Frontend: "split=0.25"}); err != nil {
		t.Fatalf("tuned memcache run: %v", err)
	}
}
