package noc

import (
	"testing"

	"mac3d/internal/sim"
)

// FuzzParseNoCConfig holds Config to its contract: WithDefaults is
// idempotent, and every config Validate accepts, as given or after
// WithDefaults, builds with New.
func FuzzParseNoCConfig(f *testing.F) {
	// Fields: topology, nodes, lat, bw, buf, inject, cols.
	f.Add("", 0, uint64(0), 0, 0, 0, 0)
	f.Add("ideal", 2, uint64(330), 2, 0, 0, 0)
	f.Add("crossbar", 2, uint64(330), 2, 0, 0, 0)
	f.Add("ring", 8, uint64(83), 4, 32, 16, 0)
	f.Add("mesh", 16, uint64(10), 2, 64, 8, 8)
	f.Add("mesh", 0, uint64(0), 0, 0, 0, 3)
	f.Add(" Ring ", 2, uint64(5), 1, 0, 0, 0)
	f.Add("torus", 4, uint64(0), 0, 0, 0, 0)
	f.Add("ring", -1, uint64(0), -1, -1, -1, -1)
	f.Add("ring", 2, uint64(1)<<41, 65, 1<<21, 1<<21, 0)
	f.Add("mesh", 4, uint64(0), 0, 0, 0, 3)
	f.Add("xbar", 1024, uint64(1)<<40, 64, 0, 0, 0)
	f.Fuzz(func(t *testing.T, topology string, nodes int, lat uint64, bw, buf, inject, cols int) {
		raw := Config{
			Topology:      topology,
			Nodes:         nodes,
			LinkLatency:   sim.Cycle(lat),
			LinkBandwidth: bw,
			BufferFlits:   buf,
			InjectDepth:   inject,
			MeshCols:      cols,
		}
		def := raw.WithDefaults()
		if again := def.WithDefaults(); again != def {
			t.Fatalf("WithDefaults not idempotent: %+v then %+v", def, again)
		}
		for _, c := range []Config{raw, def} {
			if c.Validate() != nil {
				continue
			}
			if _, err := New[int](c); err != nil {
				t.Fatalf("Validate accepted %+v but New: %v", c, err)
			}
		}
	})
}
