package numa

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// seqTrace builds per-thread sequential load streams.
func seqTrace(threads, n int) *trace.Trace {
	tr := trace.NewTrace(threads)
	for t := 0; t < threads; t++ {
		base := uint64(t) << 24
		for i := 0; i < n; i++ {
			tr.Append(trace.Event{
				Addr: base + uint64(i)*8, Thread: uint16(t),
				Op: trace.Load, Size: 8, Gap: 1,
			})
		}
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Tile.Node.Cores = 0 },
		func(c *Config) { c.NoC.LinkBandwidth = -1 },
		func(c *Config) { c.Tile.Node.MaxOutstanding = 0 },
		func(c *Config) { c.Tile.Node.MaxCycles = 0 },
		func(c *Config) { c.Tile.MAC.ARQ.Entries = 0 },
		func(c *Config) { c.Tile.HMC.Links = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSingleNodeMatchesLocalOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	res, err := Run(cfg, seqTrace(4, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteRequests != 0 {
		t.Fatalf("single node produced %d remote requests", res.RemoteRequests)
	}
	if res.MemRequests != 4*64 {
		t.Fatalf("mem requests = %d", res.MemRequests)
	}
	if res.RequestLatency.Count() != 4*64 {
		t.Fatalf("retired %d", res.RequestLatency.Count())
	}
}

func TestTwoNodesSplitTraffic(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, seqTrace(4, 128))
	if err != nil {
		t.Fatal(err)
	}
	// 256B interleave over sequential streams: about half the rows
	// land on each node.
	f := res.RemoteFraction()
	if f < 0.3 || f > 0.7 {
		t.Fatalf("remote fraction = %v, want ~0.5", f)
	}
	if res.RequestLatency.Count() != 4*128 {
		t.Fatalf("retired %d of %d", res.RequestLatency.Count(), 4*128)
	}
	// Both nodes must have served traffic.
	for i, ns := range res.PerNode {
		if ns.Device.Requests == 0 {
			t.Fatalf("node %d served nothing", i)
		}
	}
}

func TestRemoteLatencyVisible(t *testing.T) {
	near := DefaultConfig()
	near.NoC.LinkLatency = 10
	far := DefaultConfig()
	far.NoC.LinkLatency = 2000
	tr := seqTrace(4, 64)
	a, err := Run(near, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(far, tr)
	if err != nil {
		t.Fatal(err)
	}
	if b.RequestLatency.Mean() <= a.RequestLatency.Mean() {
		t.Fatalf("far interconnect not slower: %v vs %v",
			b.RequestLatency.Mean(), a.RequestLatency.Mean())
	}
}

func TestTooManyThreadsPerNodeRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tile.Node.Cores = 1
	// 4 threads -> 2 per node, but only 1 core per node.
	if _, err := Run(cfg, seqTrace(4, 8)); err == nil {
		t.Fatal("over-subscription accepted")
	}
}

func TestRemoteCoalescing(t *testing.T) {
	// All threads on node 0, all data on node 1: node 1's MAC must
	// coalesce remote-queue requests just like local ones.
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.InterleaveBytes = 1 << 20 // 1MB blocks
	tr := trace.NewTrace(2)
	// Threads 0 and 2 home on node 0. Addresses in block 1 -> node 1.
	for _, th := range []uint16{0, 2} {
		base := uint64(1)<<20 + uint64(th)<<14
		for i := 0; i < 128; i++ {
			tr.Append(trace.Event{Addr: base + uint64(i)*8, Thread: th, Op: trace.Load, Size: 8, Gap: 1})
		}
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteFraction() != 1 {
		t.Fatalf("remote fraction = %v, want 1", res.RemoteFraction())
	}
	n1 := res.PerNode[1]
	if n1.Coalescer.RawRequests != 256 {
		t.Fatalf("node 1 saw %d raw requests", n1.Coalescer.RawRequests)
	}
	if n1.Coalescer.CoalescingEfficiency() <= 0.2 {
		t.Fatalf("remote requests not coalesced: eff=%v", n1.Coalescer.CoalescingEfficiency())
	}
	if n1.RemoteServed != 256 {
		t.Fatalf("node 1 served %d remote targets", n1.RemoteServed)
	}
	if res.PerNode[0].Device.Requests != 0 {
		t.Fatal("node 0's device should be idle")
	}
}

func TestFencesAcrossNodes(t *testing.T) {
	cfg := DefaultConfig()
	tr := trace.NewTrace(2)
	tr.Append(trace.Event{Addr: 0x100, Thread: 0, Op: trace.Load, Size: 8})
	tr.Append(trace.Event{Thread: 0, Op: trace.Fence})
	tr.Append(trace.Event{Addr: 0x4000, Thread: 0, Op: trace.Store, Size: 8})
	tr.Append(trace.Event{Addr: 0x8000, Thread: 1, Op: trace.Load, Size: 8})
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestLatency.Count() != 3 {
		t.Fatalf("retired %d of 3", res.RequestLatency.Count())
	}
}

func TestWorkloadThroughNUMA(t *testing.T) {
	tr, err := workloads.Generate("sg", workloads.Config{Threads: 8, Seed: 1, Scale: workloads.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Tile.Node.Cores = 2
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.ComputeStats(tr)
	if res.RequestLatency.Count() != uint64(st.MemRefs) {
		t.Fatalf("retired %d of %d", res.RequestLatency.Count(), st.MemRefs)
	}
	if res.RemoteFraction() < 0.5 {
		t.Fatalf("4-node interleave remote fraction = %v", res.RemoteFraction())
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: under random node counts, interleaves and link
	// latencies, every issued request retires exactly once and
	// the per-node device totals cover all transactions.
	f := func(seed uint64, nodesRaw, interRaw, latRaw uint8) bool {
		nodes := 1 + int(nodesRaw%4)
		inter := uint64(256) << (interRaw % 4)
		cfg := DefaultConfig()
		cfg.Nodes = nodes
		cfg.Tile.Node.Cores = 8
		cfg.InterleaveBytes = inter
		cfg.NoC.LinkLatency = sim.Cycle(1 + latRaw%200)

		tr := trace.NewTrace(4)
		x := seed | 1
		n := 150
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			tr.Append(trace.Event{
				Addr:   x % (1 << 22),
				Thread: uint16(i % 4),
				Op:     trace.Load,
				Size:   8,
				Gap:    uint8(x % 3),
			})
		}
		res, err := Run(cfg, tr)
		if err != nil {
			return false
		}
		if res.RequestLatency.Count() != uint64(n) {
			return false
		}
		var served uint64
		for _, ns := range res.PerNode {
			served += ns.Device.Requests
		}
		// All devices together served every coalesced transaction.
		// A request crossing its coalescing-window boundary splits in
		// two, so transactions are bounded by 2x the raw requests.
		return served > 0 && served <= 2*uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	tr := seqTrace(4, 64)
	a, err := Run(DefaultConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.RemoteRequests != b.RemoteRequests {
		t.Fatal("nondeterministic NUMA run")
	}
}

// TestObservedSystem wires two nodes — two MACs, two devices — into
// one shared observability handle: the per-node name prefixes must
// keep the registrations apart (duplicate names panic), each node's
// occupancy metric must agree with its own per-cycle sampling, and
// each node registers the node.* series of its tile.
func TestObservedSystem(t *testing.T) {
	cfg := DefaultConfig()
	o := obs.New(1, 1<<16)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachObs(o)
	if err := s.Load(seqTrace(4, 128)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node%d.mac.arq.occupancy_mean", i)
		got, ok := o.Registry.Get(name)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if want := res.PerNode[i].ARQOccupancy; got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		series, ok := o.Recorder.Lookup(fmt.Sprintf("node%d.mac.arq.occupancy", i))
		if !ok || len(series.Points) == 0 {
			t.Fatalf("node %d occupancy timeseries missing or empty", i)
		}
		name = fmt.Sprintf("node%d.node.mem_requests", i)
		got, ok = o.Registry.Get(name)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if want := float64(res.PerNode[i].MemRequests); got != want || want == 0 {
			t.Fatalf("%s = %v, want the node's %v issued requests", name, got, want)
		}
		series, ok = o.Recorder.Lookup(fmt.Sprintf("node%d.node.lsq.outstanding", i))
		if !ok || len(series.Points) == 0 {
			t.Fatalf("node %d LSQ occupancy timeseries missing or empty", i)
		}
	}
	if o.Tracer.Len() == 0 {
		t.Fatal("tracing enabled but no transaction spans captured")
	}
}

// TestRetryConvergesAcrossNodes: poisoned completions on a multi-node
// system are re-issued at the requesting thread's home node and
// eventually deliver — no failed requests within the budget.
func TestRetryConvergesAcrossNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tile.HMC.Faults.CRCErrorRate = 0.3
	cfg.Tile.HMC.Faults.RetryLimit = 1
	cfg.Tile.HMC.Faults.Seed = 5
	cfg.Tile.Retry = memreq.RetryPolicy{MaxRetries: 8, Backoff: 16}
	res, err := Run(cfg, seqTrace(4, 64))
	if err != nil {
		t.Fatalf("retrying NUMA run: %v", err)
	}
	if res.RetriedRequests == 0 {
		t.Fatal("no poisoned completions were re-issued")
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d requests failed despite the retry budget", res.FailedRequests)
	}
	// Replay determinism holds with retries in play.
	res2, err := Run(cfg, seqTrace(4, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != res2.Cycles || res.RetriedRequests != res2.RetriedRequests {
		t.Fatal("retrying run is not deterministic")
	}
}

// TestRetryBudgetExhaustsAcrossNodes: certain poison fails every
// request cleanly after the bounded re-issues.
func TestRetryBudgetExhaustsAcrossNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.Tile.HMC.Faults.CRCErrorRate = 1.0
	cfg.Tile.HMC.Faults.RetryLimit = 1
	cfg.Tile.Retry = memreq.RetryPolicy{MaxRetries: 2, Backoff: 4}
	res, err := Run(cfg, seqTrace(2, 16))
	if err != nil {
		t.Fatalf("NUMA run under certain poison: %v", err)
	}
	if res.FailedRequests != res.MemRequests {
		t.Fatalf("FailedRequests = %d, want all %d", res.FailedRequests, res.MemRequests)
	}
	if res.RetriedRequests != 2*res.MemRequests {
		t.Fatalf("RetriedRequests = %d, want %d", res.RetriedRequests, 2*res.MemRequests)
	}
}

// TestConfigRejectsSingleNodeFeatures: the tile settings only the
// single-node driver implements are errors, not silently ignored.
func TestConfigRejectsSingleNodeFeatures(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"audit":        func(c *Config) { c.Tile.Audit = true },
		"unknown kind": func(c *Config) { c.Tile.Kind = 42 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Run(cfg, seqTrace(2, 8)); err == nil {
			t.Errorf("%s: Run accepted", name)
		}
	}
}

// TestBoundedTargetBuffer: a NUMA node honours a bounded target
// buffer the way a single node does — a full buffer backpressures the
// coalescer and the run still retires every request.
func TestBoundedTargetBuffer(t *testing.T) {
	cfg := nodesConfig(4, 2)
	cfg.Tile.Node.TargetBufferDepth = 2
	res, err := Run(cfg, goldMixTrace(7, 8, 400))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RequestLatency.Count(); got != 400 {
		t.Fatalf("retired %d of 400 requests", got)
	}
	var rejects uint64
	for _, ns := range res.PerNode {
		rejects += ns.Responses.RegisterRejects
	}
	if rejects == 0 {
		t.Fatal("a 2-entry target buffer never refused a transaction")
	}
}

// TestRunAttachesTileObs: Run wires Tile.Obs in, as cpu.Run does.
func TestRunAttachesTileObs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tile.Obs = obs.New(1, 1<<10)
	if _, err := Run(cfg, seqTrace(4, 32)); err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Tile.Obs.Registry.Get("numa.remote_requests"); !ok {
		t.Fatal("Run left Tile.Obs unattached")
	}
}

// TestWatchdogFiresAcrossNodes: a device that drops every response
// starves every node; the system watchdog fires on the summed progress
// of all nodes, at the cycle it always has, and names each node in its
// diagnostic.
func TestWatchdogFiresAcrossNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tile.HMC.Faults.DropResponseEvery = 1
	cfg.Tile.Node.StallLimit = 2_000
	cfg.Tile.Node.MaxCycles = 10_000_000
	_, err := Run(cfg, seqTrace(4, 8))
	if err == nil {
		t.Fatal("run with every response dropped completed")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "numa: no forward progress for 2000 cycles at cycle 2363 ") {
		t.Fatalf("watchdog error = %q, want it to fire at cycle 2363", msg)
	}
	for _, node := range []string{"node 0", "node 1"} {
		if !strings.Contains(msg, node) {
			t.Errorf("watchdog diagnostic does not name %s:\n%s", node, msg)
		}
	}
}
