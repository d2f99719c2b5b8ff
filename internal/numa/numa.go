// Package numa models the paper's full §3 architecture: a scalable
// multi-node system where each node couples a cache-less multicore
// processor with its own 3D-stacked memory device through a MAC unit,
// and remote devices are reached through the owning node's MAC.
//
// The single-node model in internal/cpu covers the paper's evaluated
// configuration; this package exercises the request router's Global
// and Remote access queues (§3.1) and the response router's
// remote-return path (§3.3) with a configurable node count.
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
	// Tile.Node.Cores cores per node, the Kind frontend with its
	// MAC/MSHR/Null/Warp/MemCache settings, the HMC device, the
	// request-router queue depths and the run limits. Tile.Retry
	// re-issues poisoned completions at the originating node's
	// router. Of Tile.Chaos only the link stressor (transient NoC link
	// stalls, on a routed topology) and the cubelink stressor (on a
	// routed cube) act; the node-internal stressors belong to the
	// single-node driver and are inert here. Run attaches Tile.Obs.
	// Tile.Audit and a bounded Tile.Node.TargetBufferDepth are
	// single-node features Validate rejects.
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
	case c.Tile.Node.TargetBufferDepth != 0:
		return fmt.Errorf("numa: Tile.Node.TargetBufferDepth is a single-node feature, got %d",
			c.Tile.Node.TargetBufferDepth)
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

// threadState mirrors the per-thread replay of internal/cpu.
type threadState struct {
	events      []trace.Event
	pc          int
	gapLeft     uint32
	outstanding int
	nextTag     uint16
	spmBusy     sim.Cycle
	retired     uint64
	issuedAt    map[uint16]sim.Cycle
	latency     stats.Histogram
}

func (t *threadState) done() bool {
	return t.pc >= len(t.events) && t.outstanding == 0 && t.gapLeft == 0
}

// node is one processor+MAC+HMC tile.
type node struct {
	id     int
	router *core.Router
	coal   memreq.Coalescer
	// mac is coal when it is the MAC — for occupancy sampling on
	// backpressured cycles where the coalescer is not ticked.
	mac *core.MAC
	// rec is coal's recycling hook when it offers one: fully consumed
	// Builts hand their target slabs back, keeping the pop path
	// allocation-free.
	rec     memreq.Recycler
	dev     *hmc.Device
	threads []*threadState // threads homed on this node

	// resp owns the target buffer mapping device tags to built
	// transactions and classifies every delivery (duplicate, unknown
	// and poisoned responses are counted, never panicked on).
	resp *core.ResponseRouter

	// sentThisCycle throttles outbound interconnect messages.
	sentThisCycle int
	// respOut parks response messages the fabric refused (routed
	// topologies backpressure injection); drained before requests.
	respOut []noc.Message[payload]

	remoteServed uint64 // requests served for other nodes
	remoteSent   uint64 // requests sent to other nodes

	// inflightReq remembers the raw request behind each in-flight
	// (thread, tag) homed on this node, so a poisoned completion can
	// be re-issued; populated only while Tile.Retry is on.
	inflightReq map[reqKey]*reqAttempt
	// retryPend holds this node's re-issues waiting out their backoff.
	retryPend []retryPend
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
	// PerNode carries each node's coalescer and device snapshots.
	PerNode []NodeStats
}

// NodeStats is one node's measurement snapshot.
type NodeStats struct {
	Coalescer    memreq.Stats
	Device       hmc.Stats
	Responses    core.ResponseRouterStats
	RemoteServed uint64
	RemoteSent   uint64
	// Cube is the device's intra-cube fabric snapshot; nil for the
	// ideal cube topology.
	Cube *noc.Stats
}

// RemoteFraction returns the share of memory requests that targeted a
// remote node's device.
func (r *Result) RemoteFraction() float64 {
	if r.MemRequests == 0 {
		return 0
	}
	return float64(r.RemoteRequests) / float64(r.MemRequests)
}

// System is the multi-node simulator.
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
	// progress counts forward-progress events for the watchdog.
	progress uint64
	// System-wide Result counters.
	memRequests      uint64
	spmAccesses      uint64
	remoteReqs       uint64
	failedRequests   uint64
	retriedRequests  uint64
	retireUnderflows uint64
	misrouted        uint64
}

// reqKey identifies one in-flight raw request system-wide (thread ids
// are global).
type reqKey struct {
	thread, tag uint16
}

// reqAttempt tracks the retry budget spent on one raw request.
type reqAttempt struct {
	req      memreq.RawRequest
	attempts int
}

// retryPend is one poisoned request waiting out its re-issue backoff.
type retryPend struct {
	due sim.Cycle
	req memreq.RawRequest
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
			s.retire(m.Payload.target, s.landAt, m.Payload.poisoned)
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
		rcfg := cfg.Tile.Node.Router
		rcfg.NodeID = i
		rcfg.Nodes = cfg.Nodes
		rcfg.InterleaveBytes = cfg.InterleaveBytes
		dev, err := hmc.NewDevice(cfg.Tile.HMC)
		if err != nil {
			return nil, err
		}
		coal, err := cfg.Tile.NewCoalescer()
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", i, err)
		}
		router, err := core.NewRouter(rcfg)
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", i, err)
		}
		nd := &node{
			id:     i,
			router: router,
			coal:   coal,
			dev:    dev,
			resp:   core.NewResponseRouter(0),
		}
		if mac, ok := coal.(*core.MAC); ok {
			nd.mac = mac
		}
		if rec, ok := nd.coal.(memreq.Recycler); ok {
			nd.rec = rec
		}
		if cfg.Tile.Retry.Enabled() {
			nd.inflightReq = make(map[reqKey]*reqAttempt)
		}
		s.nodes = append(s.nodes, nd)
	}
	// Declare intra-cube links across all devices to the cubelink
	// stressor (gated off for the ideal cube, which reports 0).
	s.cubeLinksPerDev = s.nodes[0].dev.CubeLinks()
	s.chaos.SetCubeLinks(s.cubeLinksPerDev * cfg.Nodes)
	return s, nil
}

// AttachObs wires every node's coalescer and device into a run's
// observability layer, each under a "nodeN." name prefix so the shared
// registry and recorder keep per-node series apart, plus system-wide
// interconnect probes. Call once before Run; nil is a no-op.
func (s *System) AttachObs(o *obs.Obs) {
	s.obs = o
	if !o.Enabled() {
		return
	}
	for _, nd := range s.nodes {
		po := o.WithPrefix(fmt.Sprintf("node%d.", nd.id))
		if a, ok := nd.coal.(obs.Attacher); ok {
			a.AttachObs(po)
		}
		nd.dev.AttachObs(po)
	}
	o.Reg().Func("numa.remote_requests", func() float64 { return float64(s.remoteReqs) })
	o.Rec().Watch("numa.net.inflight", func() float64 { return float64(s.fab.InFlight()) })
	s.fab.AttachObs(o)
}

// Load distributes a trace's threads across nodes: thread t is homed
// on node t % Nodes, so every node runs at most Tile.Node.Cores
// threads.
func (s *System) Load(tr *trace.Trace) error {
	counts := make([]int, s.cfg.Nodes)
	for th, events := range tr.Threads {
		if len(events) > 0 {
			counts[th%s.cfg.Nodes]++
		}
	}
	for n, c := range counts {
		if c > s.cfg.Tile.Node.Cores {
			return fmt.Errorf("numa: node %d would run %d threads with %d cores",
				n, c, s.cfg.Tile.Node.Cores)
		}
	}
	for _, nd := range s.nodes {
		nd.threads = nd.threads[:0]
	}
	for th, events := range tr.Threads {
		nd := s.nodes[th%s.cfg.Nodes]
		ts := &threadState{events: events, issuedAt: make(map[uint16]sim.Cycle)}
		if len(events) > 0 {
			ts.gapLeft = uint32(events[0].Gap)
		}
		nd.threads = append(nd.threads, ts)
	}
	return nil
}

// thread locates a thread's state by its global id.
func (s *System) thread(id uint16) *threadState {
	nd := s.nodes[int(id)%s.cfg.Nodes]
	for _, ts := range nd.threads {
		if len(ts.events) > 0 && ts.events[0].Thread == id {
			return ts
		}
	}
	return nil
}

// Run replays the loaded trace to completion. Each cycle ticks every
// node in id order, then advances the fabric, lands its arrivals,
// samples the recorder and checks the exit conditions.
func (s *System) Run() (*Result, error) {
	for now := sim.Cycle(0); now < s.cfg.Tile.Node.MaxCycles; now++ {
		s.tickChaos(now)
		for _, nd := range s.nodes {
			s.pumpRetries(nd, now)
			nd.sentThisCycle = 0
			s.tickThreads(nd, now)
			s.pumpInterconnect(nd, now)
			nd.router.DrainToMAC(nd.coal, now)
			s.tickCoalescer(nd, now)
			s.deliverResponses(nd, now)
		}
		s.fab.Tick(now)
		s.deliverMessages(now)
		s.obs.Rec().Sample(uint64(now))
		if s.drained() {
			return s.result(now + 1), nil
		}
		if s.watchdog.Check(now, s.progress) {
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
		line := fmt.Sprintf("router=%d coal=%d/%d dev=%d outstanding=%d",
			nd.router.Pending(), nd.coal.Pending(), nd.coal.Inflight(),
			nd.dev.Pending(), nd.resp.Pending())
		if tag, registered, b, ok := nd.resp.Oldest(); ok {
			line += fmt.Sprintf(" oldest=tag %d age %d (%s 0x%x)",
				tag, now-registered, b.Req.Kind, b.Req.Addr)
		}
		kvs = append(kvs, stats.KV{Key: fmt.Sprintf("node %d", nd.id), Value: line})
	}
	return fmt.Errorf("numa: no forward progress for %d cycles at cycle %d (lost response or resource leak?)\n%s",
		s.cfg.Tile.Node.StallLimit, now, stats.FormatKV(kvs))
}

func (s *System) tickThreads(nd *node, now sim.Cycle) {
	for _, t := range nd.threads {
		if t.spmBusy != 0 {
			if now < t.spmBusy {
				continue
			}
			t.spmBusy = 0
		}
		if t.gapLeft > 0 {
			t.gapLeft--
			t.retired++
			s.progress++
			continue
		}
		if t.pc >= len(t.events) {
			continue
		}
		e := t.events[t.pc]
		if e.Op.IsMemory() && addr.IsSPM(e.Addr) {
			t.spmBusy = now + s.cfg.Tile.Node.SPMLatency
			t.retired++
			s.progress++
			s.spmAccesses++
			s.advance(t)
			continue
		}
		if e.Op == trace.Fence {
			if t.outstanding > 0 {
				continue
			}
			if !nd.router.OfferLocal(memreq.RawRequest{Fence: true, Thread: e.Thread}) {
				continue
			}
			t.retired++
			s.progress++
			s.advance(t)
			continue
		}
		if t.outstanding >= s.cfg.Tile.Node.MaxOutstanding {
			continue
		}
		req := memreq.RawRequest{
			Addr:   e.Addr,
			Size:   e.Size,
			Store:  e.Op == trace.Store,
			Atomic: e.Op == trace.Atomic,
			Thread: e.Thread,
			Tag:    t.nextTag,
		}
		if !nd.router.OfferLocal(req) {
			continue
		}
		t.nextTag++
		t.outstanding++
		t.issuedAt[req.Tag] = now
		t.retired++
		s.progress++
		s.memRequests++
		if s.cfg.Tile.Retry.Enabled() {
			nd.inflightReq[reqKey{req.Thread, req.Tag}] = &reqAttempt{req: req}
		}
		if nd.router.Dest(e.Addr) != nd.id {
			s.remoteReqs++
			nd.remoteSent++
		}
		s.advance(t)
	}
}

func (s *System) advance(t *threadState) {
	t.pc++
	if t.pc < len(t.events) {
		t.gapLeft = uint32(t.events[t.pc].Gap)
	}
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
	for nd.sentThisCycle < s.reqBudget {
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
		nd.sentThisCycle++
	}
}

func (s *System) tickCoalescer(nd *node, now sim.Cycle) {
	if !nd.dev.CanAccept() {
		if nd.mac != nil {
			nd.mac.SampleOccupancy()
		}
		return
	}
	for _, b := range nd.coal.Tick(now) {
		bb := b
		nd.resp.Register(&bb, now)
		bb.Span.MarkSubmit(uint64(now))
		nd.dev.Submit(bb.Req, now)
		s.progress++
	}
}

// deliverResponses routes device completions: local targets retire
// directly, remote targets travel back over the interconnect (§3.3).
func (s *System) deliverResponses(nd *node, now sim.Cycle) {
	for _, resp := range nd.dev.Tick(now) {
		b, status := nd.resp.Deliver(resp)
		switch status {
		case core.RespDuplicate, core.RespUnknown:
			// Counted by the response router; nothing to retire.
			continue
		}
		poisoned := status == core.RespPoisoned
		nd.coal.Completed(b)
		s.progress++
		b.Span.MarkRespond(uint64(now))
		s.obs.Trace().Transaction(resp.Tag, b.Span)
		for _, tgt := range b.Targets {
			home := int(tgt.Thread) % s.cfg.Nodes
			if home == nd.id {
				s.retire(tgt, now, poisoned)
				continue
			}
			nd.remoteServed++
			m := noc.Message[payload]{
				Src:     nd.id,
				Dst:     home,
				Flits:   respFlits(b.Req.Kind),
				Payload: payload{isResponse: true, poisoned: poisoned, target: tgt},
			}
			if !s.fab.Send(now, m) {
				// Routed-fabric backpressure: park the response and
				// retry it (ahead of requests) next cycle. The ideal
				// fabric never refuses.
				nd.respOut = append(nd.respOut, m)
			}
		}
		// Every target has been consumed (retired locally or copied
		// into a response message) and the span recorded: hand the
		// transaction's slab back to the coalescer.
		if nd.rec != nil {
			nd.rec.Recycle(b)
		}
	}
}

// deliverMessages lands arrived interconnect messages. A request whose
// owner node's Remote Access Queue is full stays queued in the fabric
// — without letting younger traffic from its source pass it — and is
// offered again next cycle.
func (s *System) deliverMessages(now sim.Cycle) {
	s.landAt = now
	s.fab.Deliver(now, s.land)
}

// retire lands one target at its thread's home node: directly when
// the serving node is the home, or when the response arrives over the
// fabric.
func (s *System) retire(tgt memreq.Target, now sim.Cycle, poisoned bool) {
	if tgt.Cont {
		// Continuation half of a window-split request: the head half
		// owns the request's one LSQ slot and latency observation.
		return
	}
	home := s.nodes[int(tgt.Thread)%s.cfg.Nodes]
	t := s.thread(tgt.Thread)
	if t == nil {
		// A corrupt target naming a thread the system does not run:
		// count it and keep going rather than tearing the run down.
		s.misrouted++
		return
	}
	if t.outstanding <= 0 {
		s.retireUnderflows++
		return
	}
	if poisoned && s.scheduleRetry(home, tgt, now) {
		// The LSQ slot stays occupied and issuedAt keeps the original
		// issue cycle: latency spans the retries, fences keep waiting.
		return
	}
	t.outstanding--
	s.progress++
	if poisoned {
		s.failedRequests++
	}
	if s.cfg.Tile.Retry.Enabled() {
		delete(home.inflightReq, reqKey{tgt.Thread, tgt.Tag})
	}
	if issue, ok := t.issuedAt[tgt.Tag]; ok {
		t.latency.Observe(uint64(now - issue))
		delete(t.issuedAt, tgt.Tag)
	}
}

// scheduleRetry queues a poisoned request for re-issue at its home
// node if the retry policy has budget left; it reports whether the
// retirement should be suppressed.
func (s *System) scheduleRetry(home *node, tgt memreq.Target, now sim.Cycle) bool {
	if !s.cfg.Tile.Retry.Enabled() {
		return false
	}
	a, ok := home.inflightReq[reqKey{tgt.Thread, tgt.Tag}]
	if !ok || a.attempts >= s.cfg.Tile.Retry.MaxRetries {
		return false
	}
	a.attempts++
	home.retryPend = append(home.retryPend, retryPend{due: now + s.cfg.Tile.Retry.Backoff, req: a.req})
	return true
}

// pumpRetries re-offers nd's poisoned requests whose backoff expired;
// a full router queue retries next cycle. Requests re-issue at the
// node their thread lives on.
func (s *System) pumpRetries(nd *node, now sim.Cycle) {
	if len(nd.retryPend) == 0 {
		return
	}
	keep := nd.retryPend[:0]
	for _, p := range nd.retryPend {
		if p.due > now || !nd.router.OfferLocal(p.req) {
			keep = append(keep, p)
			continue
		}
		s.retriedRequests++
		s.progress++
	}
	nd.retryPend = keep
}

func (s *System) drained() bool {
	if s.fab.InFlight() > 0 {
		return false
	}
	for _, nd := range s.nodes {
		if nd.router.Pending() > 0 || nd.coal.Pending() > 0 ||
			nd.coal.Inflight() > 0 || nd.dev.Pending() > 0 ||
			len(nd.respOut) > 0 || len(nd.retryPend) > 0 {
			return false
		}
		for _, t := range nd.threads {
			if !t.done() {
				return false
			}
		}
	}
	return true
}

func (s *System) result(cycles sim.Cycle) *Result {
	r := &Result{
		Cycles:           cycles,
		MemRequests:      s.memRequests,
		SPMAccesses:      s.spmAccesses,
		RemoteRequests:   s.remoteReqs,
		FailedRequests:   s.failedRequests,
		RetriedRequests:  s.retriedRequests,
		RetireUnderflows: s.retireUnderflows,
		Misrouted:        s.misrouted,
		NoC:              s.fab.Stats(),
		Chaos:            s.chaos.Stats(),
	}
	for _, nd := range s.nodes {
		for _, t := range nd.threads {
			r.Instructions += t.retired
			r.RequestLatency.Merge(&t.latency)
		}
		ns := NodeStats{
			Coalescer:    *nd.coal.Stats(),
			Device:       *nd.dev.Stats(),
			Responses:    nd.resp.Stats(),
			RemoteServed: nd.remoteServed,
			RemoteSent:   nd.remoteSent,
		}
		if st := nd.dev.CubeStats(); st != nil {
			snap := *st
			ns.Cube = &snap
		}
		r.PerNode = append(r.PerNode, ns)
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
