package noc

import (
	"fmt"
	"strings"

	"mac3d/internal/sim"
)

// Topology names.
const (
	// Ideal is the contention-free crossbar: every message pays one
	// fixed LinkLatency, requests are injection-limited to
	// LinkBandwidth messages per node per cycle, and nothing else
	// contends. WithDefaults accepts "crossbar" and "xbar" as aliases.
	Ideal = "ideal"
	// Ring is the bidirectional ring with shortest-path routing.
	Ring = "ring"
	// Mesh is the 2D mesh with dimension-ordered (XY) routing.
	Mesh = "mesh"
)

// Config parameterizes a fabric.
type Config struct {
	// Topology selects ideal, ring or mesh ("crossbar" is accepted as
	// an alias of ideal and normalized by WithDefaults).
	Topology string
	// Nodes is the endpoint count. The NUMA driver overwrites it with
	// its own node count; a config that states both must agree.
	Nodes int
	// LinkLatency is the per-hop propagation latency in cycles (for
	// ideal: the one-way latency of the whole crossbar).
	LinkLatency sim.Cycle
	// LinkBandwidth is the link serialization width in flits per
	// cycle (for ideal: the per-node request injection bandwidth in
	// messages per cycle, the pre-NoC LinkBandwidth semantics).
	LinkBandwidth int
	// BufferFlits sizes each router input buffer, in flits; it is
	// also the credit pool the upstream sender draws from. Must hold
	// at least two maximum-size messages. Ignored by ideal.
	BufferFlits int
	// InjectDepth bounds each node's injection queue, in messages; a
	// full queue refuses Send. Ignored by ideal.
	InjectDepth int
	// MeshCols fixes the mesh width; 0 picks the most-square
	// factorization of Nodes. Ignored by ring and ideal.
	MeshCols int
}

// DefaultConfig returns a 2-node ideal fabric with the pre-NoC NUMA
// defaults (a ~100ns one-way hop at 3.3GHz, two messages per cycle).
func DefaultConfig() Config {
	return Config{
		Topology:      Ideal,
		Nodes:         2,
		LinkLatency:   330,
		LinkBandwidth: 2,
		BufferFlits:   64,
		InjectDepth:   8,
	}
}

// WithDefaults fills the unset fields of a partially specified config
// and canonicalizes the topology name. It does not touch Nodes or
// LinkLatency: a zero latency is a legal zero-cycle hop (the pre-NoC
// NUMA model accepted it), so the latency default belongs to the
// caller that can tell an omitted latency from a zero one (the façade's
// NoCOptions.LinkLatencyNs).
func (c Config) WithDefaults() Config {
	switch strings.ToLower(strings.TrimSpace(c.Topology)) {
	case "", Ideal, "crossbar", "xbar":
		c.Topology = Ideal
	case Ring:
		c.Topology = Ring
	case Mesh:
		c.Topology = Mesh
	default:
		// Leave the unknown name for Validate to report.
		c.Topology = strings.ToLower(strings.TrimSpace(c.Topology))
	}
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 2
	}
	if c.BufferFlits == 0 {
		c.BufferFlits = 64
	}
	if c.InjectDepth == 0 {
		c.InjectDepth = 8
	}
	return c
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch c.Topology {
	case Ideal, Ring, Mesh:
	default:
		return fmt.Errorf("noc: unknown topology %q (want ideal, crossbar, ring or mesh)", c.Topology)
	}
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("noc: Nodes must be positive, got %d", c.Nodes)
	case c.Nodes > 1024:
		return fmt.Errorf("noc: Nodes %d exceeds the 1024 bound", c.Nodes)
	case c.LinkBandwidth <= 0:
		return fmt.Errorf("noc: LinkBandwidth must be positive, got %d", c.LinkBandwidth)
	case c.LinkBandwidth > 64:
		return fmt.Errorf("noc: LinkBandwidth %d exceeds the 64 flits/cycle bound", c.LinkBandwidth)
	case c.LinkLatency > 1<<40:
		return fmt.Errorf("noc: LinkLatency %d exceeds the 2^40 bound", c.LinkLatency)
	}
	if c.Topology != Ideal {
		if c.BufferFlits < 2*MaxMessageFlits {
			return fmt.Errorf("noc: BufferFlits %d cannot hold two maximum messages (%d flits)",
				c.BufferFlits, 2*MaxMessageFlits)
		}
		if c.BufferFlits > 1<<20 {
			return fmt.Errorf("noc: BufferFlits %d exceeds the 2^20 bound", c.BufferFlits)
		}
		if c.InjectDepth <= 0 || c.InjectDepth > 1<<20 {
			return fmt.Errorf("noc: InjectDepth %d outside (0, 2^20]", c.InjectDepth)
		}
	}
	if c.Topology == Mesh && c.MeshCols != 0 {
		if c.MeshCols < 0 || c.MeshCols > c.Nodes {
			return fmt.Errorf("noc: MeshCols %d outside [1, Nodes=%d]", c.MeshCols, c.Nodes)
		}
		if c.Nodes%c.MeshCols != 0 {
			return fmt.Errorf("noc: MeshCols %d does not divide Nodes %d", c.MeshCols, c.Nodes)
		}
	}
	return nil
}
