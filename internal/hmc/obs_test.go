package hmc

import (
	"testing"

	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// TestInflightCountsCubeCrossings: hmc.inflight, as registry gauge and
// as sampled series, is the same count CanAccept holds against
// MaxInflight — accesses still queued for or crossing a routed cube
// fabric included.
func TestInflightCountsCubeCrossings(t *testing.T) {
	for _, cube := range []string{"ideal", "ring"} {
		cfg := DefaultConfig()
		var err error
		if cfg.Cube, err = ParseCubeConfig(cube); err != nil {
			t.Fatal(err)
		}
		d := MustNewDevice(cfg)
		o := obs.New(1, 0)
		d.AttachObs(o)
		for i := 0; i < 8; i++ {
			d.Submit(Request{Tag: uint64(i), Addr: uint64(i) * 4096, Kind: Read, Data: 64}, 0)
		}
		for now := sim.Cycle(0); now <= 5; now++ {
			if out := d.Tick(now); len(out) != 0 {
				t.Fatalf("%s: %d responses by cycle %d", cube, len(out), now)
			}
			o.Rec().Sample(uint64(now))
		}
		if d.Pending() != 8 {
			t.Fatalf("%s: Pending() = %d, want 8", cube, d.Pending())
		}
		if v, _ := o.Reg().Get("hmc.inflight"); v != 8 {
			t.Errorf("%s: hmc.inflight gauge = %v, want 8", cube, v)
		}
		s, ok := o.Rec().Lookup("hmc.inflight")
		if !ok || len(s.Points) == 0 {
			t.Fatalf("%s: no hmc.inflight series", cube)
		}
		if v := s.Points[len(s.Points)-1].Value; v != 8 {
			t.Errorf("%s: hmc.inflight sample at cycle 5 = %v, want 8", cube, v)
		}
	}
}
