package cpu

import (
	"testing"

	"mac3d/internal/hmc"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

// steadyTrace is threads x n events of mixed traffic over a footprint
// large enough to miss every stacked cache: loads and stores walking
// lines at a stride, with an atomic every 53 events and a fence every
// 97.
func steadyTrace(threads, n int) *trace.Trace {
	tr := trace.NewTrace(threads)
	for t := 0; t < threads; t++ {
		base := uint64(t) << 24
		for i := 0; i < n; i++ {
			e := trace.Event{
				Addr: base + uint64(i*72%(1<<22)), Thread: uint16(t),
				Op: trace.Load, Size: 8, Gap: uint8(i % 3),
			}
			switch {
			case i%97 == 96:
				e = trace.Event{Thread: uint16(t), Op: trace.Fence}
			case i%53 == 52:
				e.Op = trace.Atomic
			case i%5 == 4:
				e.Op = trace.Store
			}
			tr.Append(e)
		}
	}
	return tr
}

// TestNodeSteadyStateAllocatesNothing: once warmed up, a node moves
// transactions from its threads through every frontend, the device and
// back without allocating — each frontend reuses its Tick slice, the
// node reuses the slots it copies Builts into, and tags map to issue
// cycles and transactions through rings rather than maps. The rings
// double while the span of tags in flight still grows, which settles
// within the long warm-up.
func TestNodeSteadyStateAllocatesNothing(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := DefaultRunConfig()
			cfg.Kind = k
			dev, err := hmc.NewDevice(cfg.HMC)
			if err != nil {
				t.Fatal(err)
			}
			coal, err := cfg.NewCoalescer()
			if err != nil {
				t.Fatal(err)
			}
			n, err := NewNode(cfg.Node, coal, dev)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Load(steadyTrace(8, 100000)); err != nil {
				t.Fatal(err)
			}
			var now sim.Cycle
			step := func() {
				n.Issue(now)
				n.Serve(now)
				now++
			}
			for i := 0; i < 150000; i++ {
				step()
			}
			before := dev.Stats().Requests
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 20000; i++ {
					step()
				}
			})
			tx := dev.Stats().Requests - before
			if tx == 0 || n.Drained() {
				t.Fatalf("measured no steady state: %d transactions, drained %v", tx, n.Drained())
			}
			if allocs != 0 {
				t.Errorf("%v allocations over %d transactions", allocs, tx)
			}
		})
	}
}
