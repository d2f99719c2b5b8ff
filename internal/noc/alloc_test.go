package noc

import (
	"testing"

	"mac3d/internal/sim"
)

// allocsOver returns the total allocations of n calls of step, after
// the same number of warm-up calls has grown every queue to its
// high-water mark.
func allocsOver(n int, step func()) float64 {
	for i := 0; i < n; i++ {
		step()
	}
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			step()
		}
	})
}

// TestRoutedSteadyStateAllocatesNothing: under saturating load (every
// node offers a message every cycle, self-sends included), one
// Send/Tick/Deliver cycle of a warmed-up ring or mesh allocates
// nothing.
func TestRoutedSteadyStateAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{
		{Topology: Ring, Nodes: 8, LinkLatency: 2, LinkBandwidth: 1, BufferFlits: 16, InjectDepth: 4},
		{Topology: Mesh, Nodes: 9, LinkLatency: 2, LinkBandwidth: 2, BufferFlits: 16, InjectDepth: 4},
	} {
		f := mustFabric(t, cfg)
		var now sim.Cycle
		k := 0
		sink := func(Message[int]) bool { return true }
		step := func() {
			for n := 0; n < cfg.Nodes; n++ {
				f.Send(now, Message[int]{Src: n, Dst: (n + k) % cfg.Nodes, Flits: 1 + k%MaxMessageFlits, Payload: k})
				k++
			}
			f.Tick(now)
			f.Deliver(now, sink)
			now++
		}
		if allocs := allocsOver(2000, step); allocs != 0 {
			t.Errorf("%s: %v allocations over 2000 loaded cycles", cfg.Topology, allocs)
		}
		if f.Stats().Delivered == 0 || f.Stats().InjectRejects == 0 {
			t.Fatalf("%s: load did not saturate: %+v", cfg.Topology, f.Stats())
		}
	}
}

// TestIdealSteadyStateAllocatesNothing: the crossbar's Send plus
// Deliver allocate nothing per message once the delivery heap has
// grown.
func TestIdealSteadyStateAllocatesNothing(t *testing.T) {
	f := mustFabric(t, Config{Topology: Ideal, Nodes: 4, LinkLatency: 30, LinkBandwidth: 2})
	var now sim.Cycle
	k := 0
	sink := func(Message[int]) bool { return true }
	step := func() {
		f.Send(now, Message[int]{Src: k % 4, Dst: (k + 1) % 4, Payload: k})
		k++
		f.Deliver(now, sink)
		now++
	}
	if allocs := allocsOver(2000, step); allocs != 0 {
		t.Errorf("%v allocations over 2000 messages", allocs)
	}
}
