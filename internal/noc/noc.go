// Package noc is the cycle-driven interconnect model of the multi-node
// system: the network the NUMA fabric's Global/Remote traffic rides
// (Hadidi et al., "Performance Implications of NoCs on 3D-Stacked
// Memories", show this structure dominates HMC-cluster behaviour).
//
// Three topologies are provided:
//
//   - ideal (alias crossbar): a contention-free full crossbar whose
//     only costs are a fixed one-way latency and a per-node request
//     injection bandwidth — bit-identical to the point-to-point wire
//     the NUMA model used before this package existed, kept so old
//     results stay reproducible;
//   - ring: a bidirectional ring with shortest-path routing (ties go
//     clockwise) and critical-bubble injection control, so the cyclic
//     channel dependency can never deadlock;
//   - mesh: a 2D mesh with dimension-ordered (XY) routing, which is
//     deadlock-free by construction.
//
// Ring and mesh routers move whole messages store-and-forward, but
// serialization is FLIT-granular: a message of F flits (16B each,
// reusing the internal/memreq FLIT sizing) occupies its outgoing link
// for ceil(F/LinkBandwidth) cycles before paying the per-hop
// propagation latency. Flow control is credit-based — a router sends
// only while it holds credits for the downstream input buffer, and
// credits return when the buffered message moves on — so congestion
// backpressures hop by hop all the way to the injection queues, which
// is what the Send refusal surfaces to the driver. Every link keeps
// congestion accounts (busy cycles, credit stalls, chaos stalls,
// buffer high-water) and the fabric keeps hop and network-latency
// histograms, all exported through Stats and the obs registry.
package noc

import (
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
)

// MaxMessageFlits bounds one message's size. The NUMA fabric's
// messages are at most two flits (one 16B header plus at most 16B of
// data); the bound is what the ring's critical-bubble reserve and the
// buffer-sizing validation are stated in terms of.
const MaxMessageFlits = 4

// Message is one transfer in flight on the fabric. P is the
// driver-owned payload type; the fabric never inspects it.
type Message[P any] struct {
	// Src and Dst are node ids in [0, Nodes).
	Src, Dst int
	// Flits is the serialized message size in 16B flits, in
	// [1, MaxMessageFlits]. 0 is read as 1.
	Flits int
	// Payload rides along untouched.
	Payload P
}

// Fabric is the interconnect as the node driver sees it. All methods
// are single-goroutine and must be called in nondecreasing cycle
// order: Send while the driver pumps its per-node outbound queues,
// then Tick once per cycle to move flits, then Deliver to drain
// arrivals.
type Fabric[P any] interface {
	// Send injects m at cycle now. It reports false when the source
	// node's injection port cannot accept the message this cycle
	// (bounded injection queue, or the ideal topology's per-node
	// bandwidth); the caller keeps the message and retries.
	Send(now sim.Cycle, m Message[P]) bool
	// Tick advances routers and links by one cycle. Call exactly once
	// per cycle, after the per-node Send phase.
	Tick(now sim.Cycle)
	// Deliver hands every message that has reached its destination to
	// sink, in per-(source, destination) FIFO order. A false return
	// refuses the message: it stays queued in the fabric — without
	// letting any younger message from the same source pass it — and
	// is offered again next cycle.
	Deliver(now sim.Cycle, sink func(m Message[P]) bool)
	// InFlight returns the number of accepted, undelivered messages.
	InFlight() int
	// Links returns the directed link count (0 for ideal).
	Links() int
	// StallLink freezes one directed link until the given cycle (the
	// chaos engine's transient NoC fault). Out-of-range ids and the
	// ideal topology ignore the call.
	StallLink(link int, until sim.Cycle)
	// Stats returns the live accumulated statistics.
	Stats() *Stats
	// AttachObs registers the fabric's metrics and timeseries under
	// the "noc." prefix. Call at most once, before the run.
	AttachObs(o *obs.Obs)
}

// LinkStats is one directed link's congestion account.
type LinkStats struct {
	// From and To are the endpoints; Class names the direction ("cw",
	// "ccw", "east", "west", "north", "south").
	From, To int
	Class    string
	// Messages and Flits count traffic serialized onto the link.
	Messages uint64
	Flits    uint64
	// BusyCycles counts cycles the link spent serializing flits.
	BusyCycles uint64
	// CreditStalls counts cycles a head message wanted this link but
	// the downstream buffer had no credit; ChaosStalls counts cycles
	// lost to injected link faults (StallLink).
	CreditStalls uint64
	ChaosStalls  uint64
	// MaxBufferFlits is the downstream input buffer's high-water mark.
	MaxBufferFlits int
}

// Stats is the fabric-wide measurement set.
type Stats struct {
	// Topology echoes the configured topology name.
	Topology string
	// Sent counts accepted messages; Delivered the ones the sink took.
	Sent      uint64
	Delivered uint64
	// FlitsSent counts flits across all accepted messages.
	FlitsSent uint64
	// InjectRejects counts Send refusals (driver-visible backpressure).
	InjectRejects uint64
	// DeliverRetries counts sink refusals (destination queue full):
	// each one is a cycle a delivered message waited at the ejection
	// port.
	DeliverRetries uint64
	// Hops observes per-message hop counts (1 for ideal, 0 for a
	// source-is-destination transfer).
	Hops stats.Histogram
	// NetLatency observes send→deliver cycles per message.
	NetLatency stats.Histogram
	// Links holds the per-link congestion accounts (empty for ideal).
	Links []LinkStats
}

// AvgHops returns the mean hop count over delivered messages.
func (s *Stats) AvgHops() float64 { return s.Hops.Mean() }

// StallCycles sums credit and chaos stalls across all links.
func (s *Stats) StallCycles() (credit, chaos uint64) {
	for i := range s.Links {
		credit += s.Links[i].CreditStalls
		chaos += s.Links[i].ChaosStalls
	}
	return
}

// New builds the fabric for cfg. The payload type P is the driver's;
// the zero Config is invalid (call cfg.WithDefaults first or set
// Topology explicitly).
func New[P any](cfg Config) (Fabric[P], error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topology == Ideal {
		return newIdeal[P](cfg), nil
	}
	return newRouted[P](cfg)
}

// attachStats registers the topology-independent aggregate metrics.
func attachStats(o *obs.Obs, st *Stats, inflight func() int) {
	r := o.Reg()
	r.Func("noc.sent", func() float64 { return float64(st.Sent) })
	r.Func("noc.delivered", func() float64 { return float64(st.Delivered) })
	r.Func("noc.flits_sent", func() float64 { return float64(st.FlitsSent) })
	r.Func("noc.inject_rejects", func() float64 { return float64(st.InjectRejects) })
	r.Func("noc.deliver_retries", func() float64 { return float64(st.DeliverRetries) })
	r.Func("noc.hops_mean", func() float64 { return st.Hops.Mean() })
	r.Func("noc.latency_mean", func() float64 { return st.NetLatency.Mean() })
	o.Rec().Watch("noc.inflight", func() float64 { return float64(inflight()) })
}
