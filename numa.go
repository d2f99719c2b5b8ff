package mac3d

import (
	"fmt"
	"math"

	"mac3d/internal/cpu"
	"mac3d/internal/noc"
	"mac3d/internal/numa"
	"mac3d/internal/sim"
)

// NUMAOptions configures a multi-node run (the paper's full §3
// architecture: one MAC and one HMC device per node, remote devices
// reached through the owning node's MAC).
//
// Like RunOptions, the type is JSON-stable: the field tags are the
// macd job API wire format.
type NUMAOptions struct {
	// Workload names a registered benchmark. Required.
	Workload string `json:"workload,omitempty"`
	// Threads is the total hardware thread count, distributed
	// round-robin across nodes (default 8).
	Threads int `json:"threads,omitempty"`
	// Seed makes the run deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale selects the input size class (default ScaleTiny).
	Scale Scale `json:"scale,omitempty"`
	// Design selects each node's memory-path frontend (default
	// DesignMAC); every node runs the same design.
	Design Design `json:"design,omitempty"`
	// Frontend tunes the selected frontend, same syntax and semantics
	// as RunOptions.Frontend.
	Frontend string `json:"frontend,omitempty"`

	// Nodes is the node count (default 2).
	Nodes int `json:"nodes,omitempty"`
	// CoresPerNode is each node's core count (default 8).
	CoresPerNode int `json:"cores_per_node,omitempty"`
	// LinkLatencyNs is the one-way inter-node hop latency in
	// nanoseconds (default 100). With a NoC block present it only
	// supplies the ideal topology's latency default; routed
	// topologies take their per-hop latency from the block itself.
	LinkLatencyNs float64 `json:"link_latency_ns,omitempty"`
	// InterleaveBytes is the global address interleave block
	// (default 256, one HMC row).
	InterleaveBytes uint64 `json:"interleave_bytes,omitempty"`

	// NoC selects and parameterizes the inter-node interconnect.
	// Omitted (nil), the run uses the ideal contention-free crossbar
	// the pre-NoC model implied, driven by LinkLatencyNs.
	NoC *NoCOptions `json:"noc,omitempty"`

	// Cube configures every node device's cube-internal vault fabric,
	// page policy, and quadrant locality — same syntax and semantics
	// as RunOptions.Cube (hmc.ParseCubeConfig). Empty keeps the
	// pre-fabric ideal switch with closed-page timing.
	Cube string `json:"cube,omitempty"`

	// Chaos injects deterministic adversity; at the NUMA level the
	// link stressor acts (transient NoC link stalls on routed
	// topologies), plus the cubelink stressor when the devices run a
	// routed cube fabric.
	Chaos ChaosOptions `json:"chaos"`

	// Retry re-issues poisoned completions at the requester, same
	// semantics as RunOptions.Retry.
	Retry RetryOptions `json:"retry"`
}

// NoCOptions is the JSON shape of the interconnect configuration
// (internal/noc.Config with latency in nanoseconds).
type NoCOptions struct {
	// Topology is "ideal" (alias "crossbar"), "ring" or "mesh".
	// Defaults to ideal.
	Topology string `json:"topology,omitempty"`
	// Nodes, when non-zero, must agree with NUMAOptions.Nodes: the
	// fabric always spans every node, and a spec stating both is
	// checked for consistency rather than silently reconciled.
	Nodes int `json:"nodes,omitempty"`
	// LinkLatencyNs is the per-hop propagation latency in nanoseconds
	// (for ideal: the one-way crossbar latency). Defaults to
	// NUMAOptions.LinkLatencyNs for ideal and 25 for ring and mesh.
	LinkLatencyNs float64 `json:"link_latency_ns,omitempty"`
	// LinkBandwidth is the link serialization width in 16-byte flits
	// per cycle (for ideal: messages per node per cycle). Default 2.
	LinkBandwidth int `json:"link_bandwidth,omitempty"`
	// BufferFlits sizes each router input buffer (default 64; routed
	// topologies only).
	BufferFlits int `json:"buffer_flits,omitempty"`
	// InjectDepth bounds each node's injection queue in messages
	// (default 8; routed topologies only).
	InjectDepth int `json:"inject_depth,omitempty"`
	// MeshCols fixes the mesh width; 0 picks the most-square
	// factorization of the node count (mesh only).
	MeshCols int `json:"mesh_cols,omitempty"`
}

// Normalize returns the options with Threads, Seed, Nodes,
// CoresPerNode and LinkLatencyNs made explicit, and, when a NoC block
// is present, its topology canonicalized and its defaulted fields
// filled: the canonical form used by the macd job cache. Normalize is
// idempotent, and equal normalized options imply byte-identical
// reports. The converse does not hold: an explicit default elsewhere
// (InterleaveBytes 256) or a NoC block that restates the default fabric
// normalizes apart from the spec that omits it.
func (o NUMAOptions) Normalize() NUMAOptions {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Nodes == 0 {
		o.Nodes = 2
	}
	if o.CoresPerNode == 0 {
		o.CoresPerNode = 8
	}
	if o.LinkLatencyNs == 0 {
		o.LinkLatencyNs = 100
	}
	if o.NoC != nil {
		n := *o.NoC
		switch n.Topology {
		case "", "ideal", "crossbar", "xbar":
			n.Topology = noc.Ideal
			if n.LinkLatencyNs == 0 {
				n.LinkLatencyNs = o.LinkLatencyNs
			}
		case noc.Ring, noc.Mesh:
			if n.LinkLatencyNs == 0 {
				n.LinkLatencyNs = 25
			}
			if n.BufferFlits == 0 {
				n.BufferFlits = 64
			}
			if n.InjectDepth == 0 {
				n.InjectDepth = 8
			}
		}
		if n.LinkBandwidth == 0 {
			n.LinkBandwidth = 2
		}
		o.NoC = &n
	}
	return o
}

// tile projects the options every node shares onto the single-node
// RunOptions they mean there, so both paths validate and lower them
// through one code path.
func (o NUMAOptions) tile() RunOptions {
	return RunOptions{
		Workload: o.Workload,
		Threads:  o.Threads,
		Seed:     o.Seed,
		Scale:    o.Scale,
		Design:   o.Design,
		Frontend: o.Frontend,
		Cube:     o.Cube,
		Chaos:    o.Chaos,
		Retry:    o.Retry,
	}
}

// Validate reports the first configuration error, or nil. RunNUMA
// accepts exactly the options Validate accepts; like
// RunOptions.Validate it never panics, whatever the field values.
func (o NUMAOptions) Validate() error {
	_, err := o.Normalize().lower()
	return err
}

// lower applies Validate's checks to normalized options and lowers
// them, once, onto the internal multi-node configuration: the shared
// fields become the tile every node runs, through the single-node
// lowering, and the rest size the system and its interconnect.
func (o NUMAOptions) lower() (numa.Config, error) {
	cfg := numa.DefaultConfig()
	tile, err := o.tile().lower(true)
	if err != nil {
		return cfg, err
	}
	if err := checkNonNegative("NUMAOptions",
		field{"CoresPerNode", int64(o.CoresPerNode)},
		field{"Nodes", int64(o.Nodes)},
	); err != nil {
		return cfg, err
	}
	if o.Nodes > 256 {
		return cfg, fmt.Errorf("mac3d: NUMAOptions.Nodes %d exceeds the 256 bound", o.Nodes)
	}
	if o.CoresPerNode > maxServiceUnits {
		return cfg, fmt.Errorf("mac3d: NUMAOptions.CoresPerNode %d exceeds the %d bound", o.CoresPerNode, maxServiceUnits)
	}
	if math.IsNaN(o.LinkLatencyNs) || math.IsInf(o.LinkLatencyNs, 0) || o.LinkLatencyNs < 0 {
		return cfg, fmt.Errorf("mac3d: NUMAOptions.LinkLatencyNs %v is not a non-negative latency", o.LinkLatencyNs)
	}
	if o.LinkLatencyNs > 1e9 {
		return cfg, fmt.Errorf("mac3d: NUMAOptions.LinkLatencyNs %v exceeds the 1e9 bound", o.LinkLatencyNs)
	}
	if n := o.NoC; n != nil {
		if err := checkNonNegative("NUMAOptions.NoC",
			field{"BufferFlits", int64(n.BufferFlits)},
			field{"InjectDepth", int64(n.InjectDepth)},
			field{"LinkBandwidth", int64(n.LinkBandwidth)},
			field{"MeshCols", int64(n.MeshCols)},
			field{"Nodes", int64(n.Nodes)},
		); err != nil {
			return cfg, err
		}
		if n.Nodes != 0 && n.Nodes != o.Nodes {
			return cfg, fmt.Errorf("mac3d: NUMAOptions.NoC.Nodes %d disagrees with Nodes %d (leave it 0 to inherit)",
				n.Nodes, o.Nodes)
		}
		if math.IsNaN(n.LinkLatencyNs) || math.IsInf(n.LinkLatencyNs, 0) || n.LinkLatencyNs < 0 {
			return cfg, fmt.Errorf("mac3d: NUMAOptions.NoC.LinkLatencyNs %v is not a non-negative latency", n.LinkLatencyNs)
		}
		if n.LinkLatencyNs > 1e9 {
			return cfg, fmt.Errorf("mac3d: NUMAOptions.NoC.LinkLatencyNs %v exceeds the 1e9 bound", n.LinkLatencyNs)
		}
	}
	// Threads are homed round-robin on thread % Nodes, so node 0
	// carries ceil(Threads/Nodes) of them; reject here what the system
	// would reject at trace-load time, so a bad job spec fails at
	// submission rather than mid-run.
	if perNode := (o.Threads + o.Nodes - 1) / o.Nodes; perNode > o.CoresPerNode {
		return cfg, fmt.Errorf("mac3d: NUMAOptions places %d threads per node with %d cores (threads %d over %d nodes)",
			perNode, o.CoresPerNode, o.Threads, o.Nodes)
	}
	clock := sim.NewClock(0)
	cfg.Tile = tile
	cfg.Tile.Node.Cores = o.CoresPerNode
	cfg.Nodes = o.Nodes
	cfg.NoC.LinkLatency = clock.CyclesForNanos(o.LinkLatencyNs)
	if o.InterleaveBytes != 0 {
		cfg.InterleaveBytes = o.InterleaveBytes
	}
	if n := o.NoC; n != nil {
		cfg.NoC = noc.Config{
			Topology:      n.Topology,
			Nodes:         n.Nodes,
			LinkLatency:   clock.CyclesForNanos(n.LinkLatencyNs),
			LinkBandwidth: n.LinkBandwidth,
			BufferFlits:   n.BufferFlits,
			InjectDepth:   n.InjectDepth,
			MeshCols:      n.MeshCols,
		}
	}
	return cfg, cfg.Validate()
}

// NUMAReport summarizes a multi-node run.
type NUMAReport struct {
	Workload string `json:"workload"`
	Nodes    int    `json:"nodes"`
	Threads  int    `json:"threads"`

	Cycles         uint64 `json:"cycles"`
	MemRequests    uint64 `json:"mem_requests"`
	SPMAccesses    uint64 `json:"spm_accesses"`
	RemoteRequests uint64 `json:"remote_requests"`
	// RemoteFraction is the share of requests served by a remote
	// node's device.
	RemoteFraction float64 `json:"remote_fraction"`

	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	AvgLatencyNs     float64 `json:"avg_latency_ns"`

	// RetriedRequests counts poisoned completions re-issued under
	// NUMAOptions.Retry.
	RetriedRequests uint64 `json:"retried_requests"`

	// NoC summarizes the inter-node interconnect.
	NoC *NUMANoCReport `json:"noc,omitempty"`

	// Cube summarizes every node device's intra-cube fabric and
	// row-buffer behaviour, aggregated across nodes; nil unless
	// NUMAOptions.Cube selected something beyond the default cube.
	Cube *CubeReport `json:"cube,omitempty"`

	// Chaos carries the injected-adversity counters; nil unless a
	// chaos profile was active.
	Chaos *ChaosReport `json:"chaos,omitempty"`

	// PerNode carries each node's key measurements.
	PerNode []NUMANodeReport `json:"per_node"`
}

// NUMANoCReport is the interconnect slice of a NUMAReport.
type NUMANoCReport struct {
	// Topology is the canonical fabric topology name.
	Topology string `json:"topology"`
	// Links counts directed inter-router links (0 for ideal).
	Links int `json:"links"`
	// MessagesSent counts messages the fabric accepted; FlitsSent the
	// 16-byte flits across them.
	MessagesSent uint64 `json:"messages_sent"`
	FlitsSent    uint64 `json:"flits_sent"`
	// AvgHops is the mean per-message hop count.
	AvgHops float64 `json:"avg_hops"`
	// AvgNetLatencyCycles is the mean send-to-deliver network latency.
	AvgNetLatencyCycles float64 `json:"avg_net_latency_cycles"`
	// InjectRejects counts Send refusals the driver had to retry;
	// DeliverRetries counts cycles messages waited at a full
	// destination queue.
	InjectRejects  uint64 `json:"inject_rejects"`
	DeliverRetries uint64 `json:"deliver_retries"`
	// CreditStallCycles counts link-idle cycles lost to exhausted
	// credits; ChaosStallCycles those lost to injected link stalls.
	CreditStallCycles uint64 `json:"credit_stall_cycles"`
	ChaosStallCycles  uint64 `json:"chaos_stall_cycles"`
}

// NUMANodeReport is one node's slice of a NUMAReport.
type NUMANodeReport struct {
	Node                 int     `json:"node"`
	Transactions         uint64  `json:"transactions"`
	CoalescingEfficiency float64 `json:"coalescing_efficiency"`
	BankConflicts        uint64  `json:"bank_conflicts"`
	BandwidthEfficiency  float64 `json:"bandwidth_efficiency"`
	RemoteServed         uint64  `json:"remote_served"`
	RemoteSent           uint64  `json:"remote_sent"`
}

// RunNUMA executes one workload on a multi-node system.
func RunNUMA(opts NUMAOptions) (*NUMAReport, error) {
	opts = opts.Normalize()
	cfg, err := opts.lower()
	if err != nil {
		return nil, err
	}
	tr, err := opts.tile().generate()
	if err != nil {
		return nil, err
	}
	res, err := numa.Run(cfg, tr)
	if err != nil {
		return nil, err
	}

	clock := sim.NewClock(0)
	rep := &NUMAReport{
		Workload:         opts.Workload,
		Nodes:            opts.Nodes,
		Threads:          opts.Threads,
		Cycles:           uint64(res.Cycles),
		MemRequests:      res.MemRequests,
		SPMAccesses:      res.SPMAccesses,
		RemoteRequests:   res.RemoteRequests,
		RemoteFraction:   res.RemoteFraction(),
		AvgLatencyCycles: res.RequestLatency.Mean(),
		AvgLatencyNs:     res.RequestLatency.Mean() / clock.FreqHz * 1e9,
		RetriedRequests:  res.RetriedRequests,
		Chaos:            newChaosReport(cfg.Tile.Chaos, res.Chaos),
	}
	if ns := res.NoC; ns != nil {
		credit, chaosStalls := ns.StallCycles()
		rep.NoC = &NUMANoCReport{
			Topology:            ns.Topology,
			Links:               len(ns.Links),
			MessagesSent:        ns.Sent,
			FlitsSent:           ns.FlitsSent,
			AvgHops:             ns.AvgHops(),
			AvgNetLatencyCycles: ns.NetLatency.Mean(),
			InjectRejects:       ns.InjectRejects,
			DeliverRetries:      ns.DeliverRetries,
			CreditStallCycles:   credit,
			ChaosStallCycles:    chaosStalls,
		}
	}
	tiles := make([]*cpu.Result, len(res.PerNode))
	for i := range res.PerNode {
		ns := &res.PerNode[i]
		tiles[i] = &ns.Result
		rep.PerNode = append(rep.PerNode, NUMANodeReport{
			Node:                 i,
			Transactions:         ns.Coalescer.Transactions,
			CoalescingEfficiency: ns.Coalescer.CoalescingEfficiency(),
			BankConflicts:        ns.Device.BankConflicts,
			BandwidthEfficiency:  ns.Device.BandwidthEfficiency(),
			RemoteServed:         ns.RemoteServed,
			RemoteSent:           ns.RemoteRequests,
		})
	}
	if opts.Cube != "" {
		rep.Cube = newCubeReport(cfg.Tile.HMC.Cube, tiles...)
	}
	return rep, nil
}
