// Package numa models the paper's full §3 architecture: a scalable
// multi-node system where each node couples a cache-less multicore
// processor with its own 3D-stacked memory device through a MAC unit,
// and remote devices are reached through the owning node's MAC.
//
// Every node is a cpu.Node tile, the same driver as the single-node
// model of the paper's evaluated configuration; this package adds the
// interconnect behind the request router's Global and Remote access
// queues (§3.1) and the response router's remote-return path (§3.3).
//
// Global/Remote traffic rides an internal/noc fabric: the default
// `ideal` topology reproduces the original point-to-point wire
// cycle-for-cycle, while `ring` and `mesh` model real routed
// interconnects with credit-based flow control and FLIT-granular link
// serialization (Config.NoC selects and parameterizes them).
package numa

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/chaos"
	"mac3d/internal/core"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
)

// Config parameterizes the multi-node system: Nodes copies of one
// single-node tile joined by the interconnect.
type Config struct {
	// Nodes is the node count (each with cores, MAC and HMC).
	Nodes int
	// InterleaveBytes is the block size of the global address
	// interleave across nodes (default: one 256B row).
	InterleaveBytes uint64
	// NoC selects and parameterizes the interconnect fabric; an empty
	// Topology means ideal, whose LinkLatency and LinkBandwidth are
	// the one-way hop latency and the per-node request messages per
	// cycle of the pre-NoC point-to-point model. NoC.Nodes may be left
	// 0 to inherit Nodes; a non-zero value must agree with it.
	NoC noc.Config
	// Tile is the single-node configuration every node replicates:
	// each node is a cpu.Node tile with Tile.Node.Cores cores, the Kind
	// frontend with its MAC/MSHR/Null/Warp/MemCache settings, the HMC
	// device, the request-router queue depths, the target buffer and
	// the run limits. Tile.Retry re-issues poisoned completions at the
	// originating node's router. Of Tile.Chaos only the link stressor
	// (transient NoC link stalls, on a routed topology) and the
	// cubelink stressor (on a routed cube) act; the node-internal
	// stressors are inert here. Run attaches Tile.Obs. Tile.Audit is a
	// single-node feature Validate rejects.
	Tile cpu.RunConfig
}

// DefaultConfig returns a 2-node system with Table 1 nodes and an
// ideal interconnect: a 100ns-class hop (330 cycles at 3.3 GHz) and
// two request messages per node per cycle.
func DefaultConfig() Config {
	return Config{
		Nodes:           2,
		InterleaveBytes: addr.RowBytes,
		NoC:             noc.Config{Topology: noc.Ideal, LinkLatency: 330, LinkBandwidth: 2},
		Tile:            cpu.DefaultRunConfig(),
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("numa: Nodes must be positive, got %d", c.Nodes)
	case c.NoC.Nodes != 0 && c.NoC.Nodes != c.Nodes:
		return fmt.Errorf("numa: NoC.Nodes=%d disagrees with Nodes=%d (leave it 0 to inherit)",
			c.NoC.Nodes, c.Nodes)
	case c.Tile.Audit:
		return fmt.Errorf("numa: Tile.Audit is a single-node feature")
	}
	if err := c.nocConfig().Validate(); err != nil {
		return err
	}
	return c.Tile.Validate()
}

// nocConfig is Config.NoC spanning every node, defaults filled.
func (c Config) nocConfig() noc.Config {
	n := c.NoC
	n.Nodes = c.Nodes
	return n.WithDefaults()
}

// payload is what a NUMA message carries across the noc fabric:
// either a request bound for the destination's Remote Access Queue or
// a response retiring a target at its origin node.
type payload struct {
	// isResponse selects the response interpretation.
	isResponse bool
	// poisoned marks a response whose transaction failed on the link;
	// the target retires with an error status.
	poisoned bool
	req      memreq.RawRequest
	target   memreq.Target
}

// reqFlits sizes a request message: one 16B header flit, plus one
// data flit when the request carries store/atomic data (raw request
// sizes are capped at one flit).
func reqFlits(r memreq.RawRequest) int {
	if r.Store || r.Atomic {
		return 2
	}
	return 1
}

// respFlits sizes a per-target response: reads and atomics return a
// data flit on top of the header; a write ack is a bare header.
func respFlits(k hmc.Kind) int {
	if k == hmc.Write {
		return 1
	}
	return 2
}

// node is one tile of the system: a cpu.Node running the threads homed
// on it, plus the interconnect state the system keeps for it.
type node struct {
	*cpu.Node
	id     int
	router *core.Router
	dev    *hmc.Device
	// respOut parks response messages the fabric refused (routed
	// topologies backpressure injection); drained before requests.
	respOut []noc.Message[payload]
	// remoteServed counts targets served for threads homed elsewhere.
	remoteServed uint64
}

// Result aggregates system-wide measurements.
type Result struct {
	Cycles         sim.Cycle
	Instructions   uint64
	MemRequests    uint64
	SPMAccesses    uint64
	RemoteRequests uint64 // requests that crossed the interconnect
	RequestLatency stats.Histogram
	// FailedRequests counts raw requests retired with an error status
	// because their transaction's response was poisoned.
	FailedRequests uint64
	// RetriedRequests counts poisoned completions re-issued under
	// Tile.Retry (once per re-issue).
	RetriedRequests uint64
	// RetireUnderflows and Misrouted count malformed deliveries
	// survived instead of panicking.
	RetireUnderflows uint64
	Misrouted        uint64
	// NoC carries the interconnect's statistics: topology, per-link
	// congestion accounts, hop and network-latency histograms.
	NoC *noc.Stats
	// Chaos carries the injected-adversity counters; nil when the
	// chaos profile is disabled.
	Chaos *chaos.Stats
	// PerNode carries each node's measurements.
	PerNode []NodeStats
}

// NodeStats is one node's measurements: its tile's result, whose
// RemoteRequests are the requests it sent to other nodes, plus the
// targets it served for them.
type NodeStats struct {
	cpu.Result
	RemoteServed uint64
}

// RemoteFraction returns the share of memory requests that targeted a
// remote node's device.
func (r *Result) RemoteFraction() float64 {
	if r.MemRequests == 0 {
		return 0
	}
	return float64(r.RemoteRequests) / float64(r.MemRequests)
}

// System is the multi-node simulator: Nodes cpu.Node tiles joined by
// the interconnect.
type System struct {
	cfg   Config
	nodes []*node
	// fab is the interconnect carrying Global/Remote traffic.
	fab noc.Fabric[payload]
	// land is fab's Deliver sink, built once; landAt is the cycle it
	// delivers at.
	land   func(noc.Message[payload]) bool
	landAt sim.Cycle
	// reqBudget bounds request injections per node per cycle: the
	// ideal fabric keeps the legacy LinkBandwidth messages-per-cycle
	// semantics; routed fabrics backpressure through Send instead.
	reqBudget int
	// chaos injects transient link stalls; nil when disabled.
	chaos *chaos.Engine
	// cubeLinksPerDev is each device's intra-cube fabric link count
	// (0 for the ideal cube); the cubelink stressor's global link id
	// l targets node l/cubeLinksPerDev, link l%cubeLinksPerDev.
	cubeLinksPerDev int
	// obs is the run's observability handle; nil when disabled.
	obs      *obs.Obs
	watchdog *sim.Watchdog
	// progress counts the interconnect's forward-progress events; the
	// watchdog adds every tile's own.
	progress uint64
}

// NewSystem builds the system; each node gets its own MAC and device.
// It returns an error for an invalid configuration instead of
// panicking.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("numa: invalid config: %w", err)
	}
	if cfg.InterleaveBytes == 0 {
		cfg.InterleaveBytes = addr.RowBytes
	}
	s := &System{cfg: cfg, watchdog: sim.NewWatchdog(cfg.Tile.Node.StallLimit)}
	ncfg := cfg.nocConfig()
	fab, err := noc.New[payload](ncfg)
	if err != nil {
		return nil, fmt.Errorf("numa: %w", err)
	}
	s.fab = fab
	s.land = func(m noc.Message[payload]) bool {
		if m.Payload.isResponse {
			s.nodes[m.Dst].Retire(m.Payload.target, m.Payload.poisoned, s.landAt)
			return true
		}
		return s.nodes[m.Dst].router.OfferRemote(m.Payload.req)
	}
	if ncfg.Topology == noc.Ideal {
		s.reqBudget = ncfg.LinkBandwidth
	} else {
		// Routed fabrics backpressure through Send refusals; the pump
		// keeps going until the injection queue fills.
		s.reqBudget = 1 << 30
	}
	eng, err := chaos.NewEngine(cfg.Tile.Chaos, 0)
	if err != nil {
		return nil, fmt.Errorf("numa: %w", err)
	}
	s.chaos = eng
	s.chaos.SetLinks(s.fab.Links())
	for i := 0; i < cfg.Nodes; i++ {
		tcfg := cfg.Tile.Node
		tcfg.Router.NodeID = i
		tcfg.Router.Nodes = cfg.Nodes
		tcfg.Router.InterleaveBytes = cfg.InterleaveBytes
		dev, err := hmc.NewDevice(cfg.Tile.HMC)
		if err != nil {
			return nil, err
		}
		coal, err := cfg.Tile.NewCoalescer()
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", i, err)
		}
		tile, err := cpu.NewTile(tcfg, coal, dev, s)
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", i, err)
		}
		tile.SetRetry(cfg.Tile.Retry)
		s.nodes = append(s.nodes, &node{Node: tile, id: i, router: tile.Router(), dev: dev})
	}
	// Declare intra-cube links across all devices to the cubelink
	// stressor (gated off for the ideal cube, which reports 0).
	s.cubeLinksPerDev = s.nodes[0].dev.CubeLinks()
	s.chaos.SetCubeLinks(s.cubeLinksPerDev * cfg.Nodes)
	return s, nil
}

// AttachObs wires every tile into a run's observability layer, each
// under a "nodeN." name prefix so the shared registry and recorder keep
// per-node series apart, plus system-wide interconnect probes. Call
// once before Run; nil is a no-op.
func (s *System) AttachObs(o *obs.Obs) {
	s.obs = o
	if !o.Enabled() {
		return
	}
	for _, nd := range s.nodes {
		nd.AttachObs(o.WithPrefix(fmt.Sprintf("node%d.", nd.id)))
	}
	o.Reg().Func("numa.remote_requests", func() float64 {
		var n uint64
		for _, nd := range s.nodes {
			n += nd.Result(0).RemoteRequests
		}
		return float64(n)
	})
	o.Rec().Watch("numa.net.inflight", func() float64 { return float64(s.fab.InFlight()) })
	s.fab.AttachObs(o)
}

// Load homes thread t of a trace on node t % Nodes; a node given more
// active threads than Tile.Node.Cores is an error.
func (s *System) Load(tr *trace.Trace) error {
	for _, nd := range s.nodes {
		if err := nd.Load(tr); err != nil {
			return fmt.Errorf("numa: node %d: %w", nd.id, err)
		}
	}
	return nil
}

// Run replays the loaded trace to completion. Each cycle steps every
// node in id order — its cores issue, the interconnect takes its
// outbound traffic, then its coalescer and device serve — then advances
// the fabric, lands its arrivals, samples the recorder and checks the
// exit conditions.
func (s *System) Run() (*Result, error) {
	for now := sim.Cycle(0); now < s.cfg.Tile.Node.MaxCycles; now++ {
		s.tickChaos(now)
		for _, nd := range s.nodes {
			nd.Issue(now)
			s.pumpInterconnect(nd, now)
			nd.Serve(now)
		}
		s.fab.Tick(now)
		s.deliverMessages(now)
		s.obs.Rec().Sample(uint64(now))
		if s.drained() {
			return s.result(now + 1), nil
		}
		progress := s.progress
		for _, nd := range s.nodes {
			progress += nd.Progress()
		}
		if s.watchdog.Check(now, progress) {
			return nil, s.stallError(now)
		}
	}
	return nil, fmt.Errorf("numa: run exceeded MaxCycles=%d", s.cfg.Tile.Node.MaxCycles)
}

// stallError renders the watchdog diagnostic: per-node queue
// occupancies and the oldest in-flight transaction.
func (s *System) stallError(now sim.Cycle) error {
	kvs := []stats.KV{
		{Key: "interconnect in flight", Value: s.fab.InFlight()},
	}
	for _, nd := range s.nodes {
		e := nd.Stall(now)
		line := fmt.Sprintf("router=%d coal=%d/%d dev=%d outstanding=%d",
			e.RouterPending, e.CoalescerPending, e.CoalescerInflight, e.DevicePending, e.OutstandingTx)
		if e.OutstandingTx > 0 {
			line += fmt.Sprintf(" oldest=tag %d age %d (%s 0x%x)",
				e.OldestTxTag, e.OldestTxAge, e.OldestTxKind, e.OldestTxAddr)
		}
		kvs = append(kvs, stats.KV{Key: fmt.Sprintf("node %d", nd.id), Value: line})
	}
	return fmt.Errorf("numa: no forward progress for %d cycles at cycle %d (lost response or resource leak?)\n%s",
		s.cfg.Tile.Node.StallLimit, now, stats.FormatKV(kvs))
}

// tickChaos advances the chaos engine and forwards any pending
// transient link stall to the fabric.
func (s *System) tickChaos(now sim.Cycle) {
	if !s.chaos.Enabled() {
		return
	}
	s.chaos.Tick(now)
	if l, until, ok := s.chaos.TakeLinkStall(); ok {
		s.fab.StallLink(l, until)
	}
	if l, until, ok := s.chaos.TakeCubeLinkStall(); ok && s.cubeLinksPerDev > 0 {
		nd := s.nodes[(l/s.cubeLinksPerDev)%len(s.nodes)]
		nd.dev.StallCubeLink(l%s.cubeLinksPerDev, until)
	}
}

// pumpInterconnect moves outbound traffic from the node onto the
// fabric: first any responses the fabric refused earlier, then
// requests from the Global Access Queue. The ideal fabric's request
// budget is LinkBandwidth messages per cycle (legacy semantics);
// routed fabrics pump until the injection queue refuses.
func (s *System) pumpInterconnect(nd *node, now sim.Cycle) {
	for len(nd.respOut) > 0 {
		if !s.fab.Send(now, nd.respOut[0]) {
			return
		}
		nd.respOut = nd.respOut[1:]
		s.progress++
	}
	for sent := 0; sent < s.reqBudget; sent++ {
		out, ok := nd.router.PeekOutbound()
		if !ok {
			return
		}
		m := noc.Message[payload]{
			Src:     nd.id,
			Dst:     out.Dest,
			Flits:   reqFlits(out.Req),
			Payload: payload{req: out.Req},
		}
		if !s.fab.Send(now, m) {
			return
		}
		nd.router.PopOutbound()
	}
}

// ReturnRemote implements cpu.RemotePort: a target node from served
// for a thread homed on node home travels back over the interconnect
// (§3.3).
func (s *System) ReturnRemote(from, home int, tgt memreq.Target, kind hmc.Kind, poisoned bool, now sim.Cycle) {
	nd := s.nodes[from]
	nd.remoteServed++
	m := noc.Message[payload]{
		Src:     from,
		Dst:     home,
		Flits:   respFlits(kind),
		Payload: payload{isResponse: true, poisoned: poisoned, target: tgt},
	}
	if !s.fab.Send(now, m) {
		// Routed-fabric backpressure: park the response and retry it
		// (ahead of requests) next cycle. The ideal fabric never
		// refuses.
		nd.respOut = append(nd.respOut, m)
	}
}

// deliverMessages lands arrived interconnect messages: a response
// retires its target at the home node, a request joins the owner
// node's Remote Access Queue. A request whose Remote Access Queue is
// full stays queued in the fabric — without letting younger traffic
// from its source pass it — and is offered again next cycle.
func (s *System) deliverMessages(now sim.Cycle) {
	s.landAt = now
	s.fab.Deliver(now, s.land)
}

func (s *System) drained() bool {
	if s.fab.InFlight() > 0 {
		return false
	}
	for _, nd := range s.nodes {
		if len(nd.respOut) > 0 || !nd.Drained() {
			return false
		}
	}
	return true
}

func (s *System) result(cycles sim.Cycle) *Result {
	r := &Result{
		Cycles: cycles,
		NoC:    s.fab.Stats(),
		Chaos:  s.chaos.Stats(),
	}
	for _, nd := range s.nodes {
		nr := nd.Result(cycles)
		r.Instructions += nr.Instructions
		r.MemRequests += nr.MemRequests
		r.SPMAccesses += nr.SPMAccesses
		r.RemoteRequests += nr.RemoteRequests
		r.FailedRequests += nr.FailedRequests
		r.RetriedRequests += nr.RetriedRequests
		r.RetireUnderflows += nr.RetireUnderflows
		r.Misrouted += nr.Misrouted
		r.RequestLatency.Merge(&nr.RequestLatency)
		r.PerNode = append(r.PerNode, NodeStats{Result: *nr, RemoteServed: nd.remoteServed})
	}
	return r
}

// Run is a convenience wrapper: build, attach cfg.Tile.Obs, load, run.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	s.AttachObs(cfg.Tile.Obs)
	if err := s.Load(tr); err != nil {
		return nil, err
	}
	return s.Run()
}
