package cpu

import (
	"testing"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/trace"
)

// mkTrace builds a trace from events, assigning per-thread order.
func mkTrace(events ...trace.Event) *trace.Trace {
	tr := trace.NewTrace(0)
	for _, e := range events {
		tr.Append(e)
	}
	return tr
}

// seqTrace generates threads x n sequential 8B loads over disjoint
// regions.
func seqTrace(threads, n int) *trace.Trace {
	tr := trace.NewTrace(threads)
	for t := 0; t < threads; t++ {
		base := uint64(t) << 20
		for i := 0; i < n; i++ {
			tr.Append(trace.Event{
				Addr: base + uint64(i)*8, Thread: uint16(t),
				Op: trace.Load, Size: 8, Gap: 1,
			})
		}
	}
	return tr
}

func TestRunEmptyTrace(t *testing.T) {
	res, err := Run(DefaultRunConfig(), trace.NewTrace(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRequests != 0 || res.Instructions != 0 {
		t.Fatalf("empty trace produced work: %+v", res)
	}
}

func TestRunSingleLoad(t *testing.T) {
	tr := mkTrace(trace.Event{Addr: 0x1000, Op: trace.Load, Size: 8})
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemRequests != 1 {
		t.Fatalf("mem requests = %d", res.MemRequests)
	}
	if res.Device.Requests != 1 {
		t.Fatalf("device requests = %d", res.Device.Requests)
	}
	if res.RequestLatency.Count() != 1 {
		t.Fatal("latency not recorded")
	}
	// Latency must be at least the unloaded device latency.
	if res.RequestLatency.Min() < 100 {
		t.Fatalf("suspiciously low latency %d", res.RequestLatency.Min())
	}
}

func TestSPMAccessesNeverReachDevice(t *testing.T) {
	tr := mkTrace(
		trace.Event{Addr: addr.SPMWindow(0) + 64, Op: trace.Load, Size: 8},
		trace.Event{Addr: addr.SPMWindow(0) + 128, Op: trace.Store, Size: 8},
		trace.Event{Addr: 0x2000, Op: trace.Load, Size: 8},
	)
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.SPMAccesses != 2 {
		t.Fatalf("SPM accesses = %d, want 2", res.SPMAccesses)
	}
	if res.MemRequests != 1 || res.Device.Requests != 1 {
		t.Fatalf("device saw %d requests, want 1", res.Device.Requests)
	}
	if res.MemAccessRate() != 1.0/3.0 {
		t.Fatalf("mem access rate = %v", res.MemAccessRate())
	}
}

func TestLSQBoundsOutstanding(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Node.MaxOutstanding = 1
	tr := seqTrace(1, 50)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// With one outstanding slot, the thread must stall heavily.
	if res.IssueStalls == 0 {
		t.Fatal("no stalls with MaxOutstanding=1")
	}
	cfg2 := DefaultRunConfig()
	cfg2.Node.MaxOutstanding = 16
	res2, err := Run(cfg2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles >= res.Cycles {
		t.Fatalf("deeper LSQ no faster: %d vs %d", res2.Cycles, res.Cycles)
	}
}

func TestTooManyThreadsRejected(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Node.Cores = 2
	tr := seqTrace(3, 2)
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("3 threads on 2 cores accepted")
	}
}

func TestGapsConsumeCycles(t *testing.T) {
	// A thread with huge gaps must take at least the gap cycles.
	tr := trace.NewTrace(1)
	for i := 0; i < 10; i++ {
		tr.Append(trace.Event{Addr: uint64(i) * 8, Op: trace.Load, Size: 8, Gap: 200})
	}
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 2000 {
		t.Fatalf("cycles = %d, want >= 2000 (gap execution)", res.Cycles)
	}
	if res.Instructions != 10+10*200 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
}

func TestFenceOrdersThreadProgram(t *testing.T) {
	tr := mkTrace(
		trace.Event{Addr: 0x1000, Op: trace.Load, Size: 8},
		trace.Event{Op: trace.Fence},
		trace.Event{Addr: 0x2000, Op: trace.Load, Size: 8},
	)
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coalescer.Fences != 1 {
		t.Fatalf("fences = %d", res.Coalescer.Fences)
	}
	if res.MemRequests != 2 {
		t.Fatalf("mem requests = %d", res.MemRequests)
	}
}

func TestAllKindsDrainSameTrace(t *testing.T) {
	tr := seqTrace(4, 64)
	for _, kind := range []CoalescerKind{WithMAC, WithoutMAC, WithMSHR} {
		cfg := DefaultRunConfig()
		cfg.Kind = kind
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.MemRequests != 4*64 {
			t.Fatalf("%v: mem requests = %d", kind, res.MemRequests)
		}
		if res.RequestLatency.Count() != 4*64 {
			t.Fatalf("%v: latencies = %d", kind, res.RequestLatency.Count())
		}
	}
}

func TestMACCoalescesSequentialStreams(t *testing.T) {
	tr := seqTrace(8, 128)
	cmp, err := Compare(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Without.Device.Requests != 8*128 {
		t.Fatalf("raw path issued %d device requests", cmp.Without.Device.Requests)
	}
	if cmp.With.Device.Requests >= cmp.Without.Device.Requests {
		t.Fatal("MAC did not reduce transactions on sequential streams")
	}
	eff := cmp.CoalescingEfficiency()
	if eff < 0.3 {
		t.Fatalf("coalescing efficiency %.2f too low for sequential streams", eff)
	}
	if cmp.With.Coalescer.AvgTargetsPerTx() <= 1 {
		t.Fatal("no multi-target transactions")
	}
}

func TestMACImprovesMemoryLatencyUnderContention(t *testing.T) {
	// Many threads streaming the same rows: the raw path suffers
	// bank conflicts that MAC removes (Figs. 12/17).
	tr := trace.NewTrace(8)
	for t2 := 0; t2 < 8; t2++ {
		for i := 0; i < 128; i++ {
			// All threads walk the same region.
			tr.Append(trace.Event{
				Addr: uint64(i)*32 + uint64(t2)*8, Thread: uint16(t2),
				Op: trace.Load, Size: 8, Gap: 0,
			})
		}
	}
	cmp, err := Compare(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BankConflictReduction() <= 0 {
		t.Fatalf("bank conflicts: with=%d without=%d",
			cmp.With.Device.BankConflicts, cmp.Without.Device.BankConflicts)
	}
	if cmp.MemorySpeedup() <= 0 {
		t.Fatalf("memory speedup = %v", cmp.MemorySpeedup())
	}
	if cmp.BandwidthSaving() <= 0 {
		t.Fatalf("bandwidth saving = %d", cmp.BandwidthSaving())
	}
}

func TestTargetsConservedThroughFullPipeline(t *testing.T) {
	// End-to-end conservation: every issued request retires exactly
	// once (the node would panic on double retire; here we check
	// the totals).
	tr := seqTrace(4, 100)
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestLatency.Count() != 400 {
		t.Fatalf("retired %d of 400", res.RequestLatency.Count())
	}
}

func TestAtomicsFlowThrough(t *testing.T) {
	tr := mkTrace(
		trace.Event{Addr: 0x1000, Op: trace.Atomic, Size: 8},
		trace.Event{Addr: 0x1008, Op: trace.Atomic, Size: 8, Thread: 0},
	)
	res, err := Run(DefaultRunConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device.Atomics != 2 {
		t.Fatalf("device atomics = %d", res.Device.Atomics)
	}
	if res.Coalescer.RawAtomics != 2 {
		t.Fatalf("coalescer atomics = %d", res.Coalescer.RawAtomics)
	}
}

func TestDeadlockGuard(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Node.MaxCycles = 10 // absurdly small
	tr := seqTrace(1, 100)
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("MaxCycles guard did not fire")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.MaxCycles = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := &Result{Cycles: 100, Instructions: 50, MemRequests: 25, SPMAccesses: 25}
	if r.IPC() != 0.5 || r.RPI() != 0.5 || r.MemAccessRate() != 0.5 || r.RPC() != 0.25 {
		t.Fatalf("metrics: IPC=%v RPI=%v rate=%v RPC=%v", r.IPC(), r.RPI(), r.MemAccessRate(), r.RPC())
	}
	var zero Result
	if zero.IPC() != 0 || zero.RPI() != 0 || zero.MemAccessRate() != 0 || zero.RPC() != 0 {
		t.Fatal("zero result metrics must be 0")
	}
}

func TestKindStrings(t *testing.T) {
	if WithMAC.String() != "mac" || WithoutMAC.String() != "raw" || WithMSHR.String() != "mshr" {
		t.Fatal("kind strings wrong")
	}
}

// recycleCounter is a coalescer counting the Builts handed back to it
// before passing them on.
type recycleCounter struct {
	memreq.Coalescer
	rec      memreq.Recycler
	recycled uint64
}

func (c *recycleCounter) Recycle(b *memreq.Built) {
	c.recycled++
	c.rec.Recycle(b)
}

// TestNodeRecyclesDeliveredTransactions: every frontend takes target
// slices back, and every transaction the node completes, poisoned ones
// included, hands its slice back exactly once.
func TestNodeRecyclesDeliveredTransactions(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := DefaultRunConfig()
			cfg.Kind = k
			cfg.HMC.Faults.CRCErrorRate = 0.3
			cfg.HMC.Faults.RetryLimit = 1
			cfg.HMC.Faults.Seed = 5
			dev, err := hmc.NewDevice(cfg.HMC)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := cfg.NewCoalescer()
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := inner.(memreq.Recycler)
			if !ok {
				t.Fatalf("%s does not take target slices back", k)
			}
			coal := &recycleCounter{Coalescer: inner, rec: rec}
			n, err := NewNode(cfg.Node, coal, dev)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Load(seqTrace(4, 64)); err != nil {
				t.Fatal(err)
			}
			res, err := n.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Responses.Poisoned == 0 {
				t.Fatal("no poisoned transactions: the fault rate exercises nothing")
			}
			if want := res.Responses.Delivered + res.Responses.Poisoned; coal.recycled != want {
				t.Fatalf("recycled %d transactions, want delivered+poisoned = %d", coal.recycled, want)
			}
		})
	}
}
