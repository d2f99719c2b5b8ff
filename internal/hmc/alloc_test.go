package hmc

import (
	"testing"

	"mac3d/internal/sim"
)

// TestDeviceSteadyStateAllocatesNothing: once warmed up, submitting
// transactions as fast as CanAccept allows and ticking every cycle
// allocates nothing — on the ideal cube and on a routed ring cube.
func TestDeviceSteadyStateAllocatesNothing(t *testing.T) {
	for _, cube := range []string{"ideal", "ring,page=open"} {
		cfg := DefaultConfig()
		var err error
		if cfg.Cube, err = ParseCubeConfig(cube); err != nil {
			t.Fatal(err)
		}
		d := MustNewDevice(cfg)
		var now sim.Cycle
		var tag uint64
		step := func() {
			if d.CanAccept() {
				d.Submit(Request{Tag: tag, Addr: (tag * 4160) % (1 << 30), Kind: Read, Data: 64}, now)
				tag++
			}
			d.Tick(now)
			now++
		}
		for i := 0; i < 20000; i++ {
			step()
		}
		before := tag
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 5000; i++ {
				step()
			}
		})
		if tag == before {
			t.Fatalf("%s: no transactions submitted while measuring", cube)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations over %d transactions", cube, allocs, tag-before)
		}
	}
}
