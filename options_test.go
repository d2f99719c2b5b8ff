package mac3d

import (
	"bytes"
	"io"
	"testing"
)

// TestEntryPointsValidate holds every single-node entry point to
// Validate: each refuses exactly what Validate refuses, whether it
// generates the named workload or replays a caller's trace.
func TestEntryPointsValidate(t *testing.T) {
	b, err := NewTraceBuilder(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(1, b.Alloc(64), 8); err != nil {
		t.Fatal(err)
	}
	file, err := workloadTraceForTest("sg", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(file)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(RunOptions) error
	}{
		{"Run", func(o RunOptions) error { _, err := Run(o); return err }},
		{"Compare", func(o RunOptions) error { _, err := Compare(o); return err }},
		{"RunTrace", func(o RunOptions) error { _, err := RunTrace(o, b); return err }},
		{"CompareTrace", func(o RunOptions) error { _, err := CompareTrace(o, b); return err }},
		{"RunTraceFile", func(o RunOptions) error { _, err := RunTraceFile(o, bytes.NewReader(data)); return err }},
		{"CompareTraceFile", func(o RunOptions) error { _, err := CompareTraceFile(o, bytes.NewReader(data)); return err }},
	}
	for _, c := range []struct {
		name string
		opts RunOptions
	}{
		{"negative Observe.SampleInterval", RunOptions{Observe: ObserveOptions{SampleInterval: -5}}},
		{"negative Observe.MaxTraceEvents", RunOptions{Observe: ObserveOptions{MaxTraceEvents: -1}}},
		{"HMCMaxInflight over bound", RunOptions{HMCMaxInflight: 100_000}},
		{"MaxOutstanding over bound", RunOptions{MaxOutstanding: 100_000}},
		{"TargetBufferDepth over bound", RunOptions{TargetBufferDepth: 100_000}},
	} {
		c.opts.Workload, c.opts.Threads = "sg", 2
		if c.opts.Validate() == nil {
			t.Errorf("Validate accepted %s", c.name)
		}
		for _, e := range entries {
			if e.run(c.opts) == nil {
				t.Errorf("%s accepted %s", e.name, c.name)
			}
		}
	}
	// The registry is consulted only when the entry point generates
	// the trace itself: a caller's trace runs under any label.
	if _, err := RunTrace(RunOptions{Workload: "hashjoin"}, b); err != nil {
		t.Errorf("RunTrace refused an unregistered label: %v", err)
	}
	if _, err := Run(RunOptions{Workload: "hashjoin"}); err == nil {
		t.Error("Run accepted an unregistered workload")
	}
}

func TestWindowBytesKnob(t *testing.T) {
	base, err := Run(RunOptions{Workload: "sg", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(RunOptions{Workload: "sg", Threads: 4, WindowBytes: 1024, MaxTargetsPerEntry: 48})
	if err != nil {
		t.Fatal(err)
	}
	// A 1KB window on SG's sequential streams must merge strictly
	// more than the 256B window.
	if wide.CoalescingEfficiency <= base.CoalescingEfficiency {
		t.Fatalf("wide window no better: %v vs %v",
			wide.CoalescingEfficiency, base.CoalescingEfficiency)
	}
	// And the wide run may emit transactions above 256B.
	foundWide := false
	for size := range wide.TxBySize {
		if size > 256 {
			foundWide = true
		}
	}
	if !foundWide {
		t.Fatal("1KB window emitted nothing above 256B")
	}
	if _, err := Run(RunOptions{Workload: "sg", WindowBytes: 300}); err == nil {
		t.Fatal("invalid window accepted")
	}
}

func TestBuilderMinBytesKnob(t *testing.T) {
	coarse, err := Run(RunOptions{Workload: "sg", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Run(RunOptions{Workload: "sg", Threads: 4, BuilderMinBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	// The FLIT-floor builder moves no more useful data than the
	// 64B-chunk design on the same request stream (it trims the
	// overfetch), and may emit sub-64B coalesced transactions.
	if fine.DataBytes > coarse.DataBytes {
		t.Fatalf("fine builder moved more data: %d vs %d",
			fine.DataBytes, coarse.DataBytes)
	}
	if _, err := Run(RunOptions{Workload: "sg", BuilderMinBytes: 32}); err == nil {
		t.Fatal("BuilderMinBytes=32 accepted")
	}
	// 64 is the explicit paper default.
	if _, err := Run(RunOptions{Workload: "sg", BuilderMinBytes: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthMetricsPopulated(t *testing.T) {
	rep, err := Run(RunOptions{Workload: "mg", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataGBps <= 0 || rep.LinkGBps <= rep.DataGBps {
		t.Fatalf("bandwidth metrics: data %v, link %v", rep.DataGBps, rep.LinkGBps)
	}
	// The modeled device tops out around 200GB/s aggregate; any
	// reading far above that indicates an accounting bug.
	if rep.LinkGBps > 500 {
		t.Fatalf("implausible link bandwidth %v GB/s", rep.LinkGBps)
	}
}

func TestMaxTargetsKnob(t *testing.T) {
	small, err := Run(RunOptions{Workload: "stream", Threads: 2, MaxTargetsPerEntry: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(RunOptions{Workload: "stream", Threads: 2, MaxTargetsPerEntry: 12})
	if err != nil {
		t.Fatal(err)
	}
	if big.AvgTargetsPerTx <= small.AvgTargetsPerTx {
		t.Fatalf("target capacity knob ineffective: %v vs %v",
			big.AvgTargetsPerTx, small.AvgTargetsPerTx)
	}
	if small.AvgTargetsPerTx > 2 {
		t.Fatalf("MaxTargets=2 exceeded: %v", small.AvgTargetsPerTx)
	}
}

func TestModelRefreshKnob(t *testing.T) {
	// Measured on the raw path: with MAC, the backpressure feedback
	// loop can convert refresh delays into extra ARQ dwell and
	// better coalescing, making makespan non-monotone. The raw path
	// has no such feedback, so refresh can only slow it.
	off, err := Run(RunOptions{Workload: "mg", Threads: 4, Design: DesignRaw})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(RunOptions{Workload: "mg", Threads: 4, Design: DesignRaw, ModelRefresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Cycles <= off.Cycles {
		t.Fatalf("refresh did not lengthen the raw run: %d vs %d cycles",
			on.Cycles, off.Cycles)
	}
	// Same work either way.
	if on.MemRequests != off.MemRequests {
		t.Fatal("refresh changed request counts")
	}
}

func TestMicroKernelsThroughFacade(t *testing.T) {
	chase, err := Compare(RunOptions{Workload: "pchase", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Compare(RunOptions{Workload: "stream", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The two extension microkernels bracket the design space.
	if !(chase.CoalescingEfficiency < stream.CoalescingEfficiency) {
		t.Fatalf("bracket violated: pchase %v !< stream %v",
			chase.CoalescingEfficiency, stream.CoalescingEfficiency)
	}
	if chase.CoalescingEfficiency > 0.2 {
		t.Fatalf("pointer chase coalesced %v", chase.CoalescingEfficiency)
	}
	if stream.CoalescingEfficiency < 0.5 {
		t.Fatalf("stream only coalesced %v", stream.CoalescingEfficiency)
	}
}

// TestValidateAllocations pins the allocations of validating a default
// run: every macd submit validates a spec whose config strings are
// empty, and neither lexing them nor checking the workload name
// allocates.
func TestValidateAllocations(t *testing.T) {
	o := RunOptions{Workload: "sg"}
	if n := testing.AllocsPerRun(100, func() {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v times, want 0", n)
	}
}
