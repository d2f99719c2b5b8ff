// Package cpu models the cache-less multicore node of the paper's §3
// architecture: simple in-order cores with per-core scratchpad memory
// (SPM), a bounded load/store queue per core for spatial latency
// tolerance, the request/response routers, a pluggable coalescer (MAC,
// or a baseline), and the attached HMC device.
//
// The node replays pre-generated per-thread memory traces. Each cycle
// a core either executes non-memory instructions (the trace's gap
// counts), retires an SPM access locally, or issues a memory request
// into the request router, stalling when its load/store queue is full.
//
// The same Node is one tile of the multi-node system in internal/numa:
// built with NewTile, it runs the threads homed on it and hands
// completed targets homed on other nodes to a RemotePort.
package cpu

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/audit"
	"mac3d/internal/chaos"
	"mac3d/internal/core"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/obs"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
	"mac3d/internal/stats"
	"mac3d/internal/trace"
)

// Config parameterizes the node.
type Config struct {
	// Cores is the number of in-order cores (Table 1: 8).
	Cores int
	// SPMLatency is the scratchpad access latency in cycles
	// (Table 1: 1ns ≈ 3–4 cycles at 3.3 GHz).
	SPMLatency sim.Cycle
	// MaxOutstanding bounds in-flight memory requests per core (the
	// load/store queue depth of §3.3).
	MaxOutstanding int
	// Router sizes the request router queues.
	Router core.RouterConfig
	// TargetBufferDepth bounds the response router's target buffer
	// (outstanding built transactions); 0 means unbounded, matching
	// the paper's evaluation. When bounded, a full buffer
	// backpressures the coalescer: built transactions wait in a
	// holding slot until an entry frees.
	TargetBufferDepth int
	// StallLimit is the simulation watchdog: a run making no forward
	// progress (no retirement, submission, or delivery) for this many
	// cycles aborts with a *StallError diagnostic instead of spinning
	// until MaxCycles. 0 disables the watchdog.
	StallLimit sim.Cycle
	// MaxCycles aborts a run that fails to drain (simulator guard).
	MaxCycles sim.Cycle
}

// DefaultConfig returns the Table 1 node configuration.
//
// MaxOutstanding defaults high (256) because the paper's evaluation is
// offered-load driven: Figure 9 reports an average of 9.32 raw
// requests per cycle entering the MAC — far above its 0.5/cycle
// service rate — which is only possible when issue is decoupled from
// completion. A small LSQ throttles the offered load so far that the
// ARQ never holds two mergeable requests (see the LSQ-depth ablation
// bench). Set a small value to model strict stall-on-use cores.
func DefaultConfig() Config {
	return Config{
		Cores:          8,
		SPMLatency:     4,
		MaxOutstanding: 256,
		Router:         core.DefaultRouterConfig(),
		StallLimit:     1_000_000,
		MaxCycles:      2_000_000_000,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpu: Cores must be positive, got %d", c.Cores)
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("cpu: MaxOutstanding must be positive, got %d", c.MaxOutstanding)
	case c.TargetBufferDepth < 0:
		return fmt.Errorf("cpu: TargetBufferDepth must be non-negative, got %d", c.TargetBufferDepth)
	case c.MaxCycles == 0:
		return fmt.Errorf("cpu: MaxCycles must be positive")
	}
	return c.Router.Validate()
}

// threadState replays one hardware thread's event stream.
type threadState struct {
	events []trace.Event
	pc     int
	// gapLeft counts remaining non-memory instruction cycles before
	// the next event may issue.
	gapLeft uint32
	// outstanding tracks in-flight (unretired) memory requests.
	outstanding int
	// nextTag generates per-thread transaction tags.
	nextTag uint16
	// spmBusy holds the completion cycle of an SPM access in
	// progress.
	spmBusy sim.Cycle
	// retired counts instructions completed (memory + gaps).
	retired uint64
	// Stall taxonomy: cycles lost per cause.
	stallLSQ    uint64 // load/store queue full
	stallRouter uint64 // request router queue full
	stallFence  uint64 // fence waiting for own outstanding requests
	// cause is what the thread's last quiet cycle did, which every
	// skipped cycle repeats.
	cause cause
	// latency accumulates per-request issue-to-retire latency.
	latency stats.Histogram
	// issuedAt maps an in-flight tag to its issue cycle.
	issuedAt queue.Tags[sim.Cycle]
}

func (t *threadState) done() bool {
	return t.pc >= len(t.events) && t.outstanding == 0 && t.gapLeft == 0
}

// cause is what a thread did on a cycle that changed nothing but its
// counters.
type cause uint8

const (
	// causeNone: an SPM access in flight, or no work left.
	causeNone cause = iota
	// causeGap: one non-memory instruction retired.
	causeGap
	// causeLSQ, causeRouter and causeFence: a stall cycle charged to
	// stallLSQ, stallRouter or stallFence.
	causeLSQ
	causeRouter
	causeFence
)

// Result summarizes a completed node run.
type Result struct {
	// Cycles is the makespan: the cycle at which every thread had
	// retired all its work.
	Cycles sim.Cycle
	// Instructions is the total retired instruction count.
	Instructions uint64
	// MemRequests is the number of raw requests issued to the
	// memory path (SPM hits excluded).
	MemRequests uint64
	// SPMAccesses is the number of scratchpad hits.
	SPMAccesses uint64
	// IssueStalls counts cycles threads spent unable to issue,
	// broken down by cause in the three fields below.
	IssueStalls uint64
	// StallLSQ is cycles stalled on a full load/store queue.
	StallLSQ uint64
	// StallRouter is cycles stalled on router backpressure.
	StallRouter uint64
	// StallFence is cycles a fence waited for the thread's own
	// outstanding requests before issuing.
	StallFence uint64
	// RequestLatency is the issue-to-retire distribution of memory
	// requests, in cycles.
	RequestLatency stats.Histogram
	// Coalescer is the coalescing statistics snapshot.
	Coalescer memreq.Stats
	// Device is the HMC statistics snapshot.
	Device hmc.Stats
	// Responses is the response router's outcome counts (duplicates,
	// unknown tags, poisoned deliveries, target-buffer rejects).
	Responses core.ResponseRouterStats
	// FailedRequests counts raw requests retired with an error
	// status because their transaction's response was poisoned
	// (link-retry budget exhausted under fault injection).
	FailedRequests uint64
	// RetriedRequests counts poisoned completions re-issued under the
	// node's RetryPolicy (each counts once per re-issue).
	RetriedRequests uint64
	// RetireUnderflows and Misrouted count malformed response
	// deliveries survived (instead of panicking): a retire for a
	// thread with nothing outstanding, and a target naming a thread
	// the node does not run.
	RetireUnderflows uint64
	Misrouted        uint64
	// Audit is the end-of-run lifecycle-conservation report; nil
	// unless auditing was enabled via Node.EnableAudit.
	Audit *audit.Report
	// Chaos is the injected-adversity summary; nil unless a chaos
	// engine was attached via Node.SetChaos.
	Chaos *chaos.Stats
	// Cube is the intra-cube fabric's interconnect statistics; nil
	// unless the device runs a routed cube topology.
	Cube *noc.Stats
	// ARQOccupancy is the mean ARQ occupancy (MAC runs only).
	ARQOccupancy float64
	// RouterLocal/Global/Remote are the routing counts.
	RouterLocal, RouterGlobal, RouterRemote uint64
	// RemoteRequests counts the fresh memory requests this node's
	// threads sent to another node's memory (re-issues excluded); 0 on
	// a single node.
	RemoteRequests uint64
}

// IPC returns retired instructions per cycle across the node.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// RPI returns memory requests per instruction.
func (r *Result) RPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(r.Instructions)
}

// MemAccessRate returns the fraction of memory operations that reach
// the MAC (i.e. miss the SPM) — Eq. 2's mem_access_rate.
func (r *Result) MemAccessRate() float64 {
	total := r.MemRequests + r.SPMAccesses
	if total == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(total)
}

// RPC returns raw requests per cycle offered to the MAC (Eq. 2).
func (r *Result) RPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MemRequests) / float64(r.Cycles)
}

// RemotePort carries a completed target back to the node its thread
// is homed on: the response router's remote-return path (§3.3). The
// multi-node system implements it over its interconnect.
type RemotePort interface {
	ReturnRemote(from, home int, tgt memreq.Target, kind hmc.Kind, poisoned bool, now sim.Cycle)
}

// Node wires threads, router, coalescer and device together.
type Node struct {
	cfg    Config
	router *core.Router
	coal   memreq.Coalescer
	// mac is coal when the run uses the MAC, else nil — for
	// occupancy sampling on cycles where the coalescer is not ticked.
	mac *core.MAC
	// rec is coal's recycling hook when it offers one: fully consumed
	// Builts hand their target slabs back, keeping the pop path
	// allocation-free.
	rec memreq.Recycler
	// idler is coal's idleness report when it offers one; without it a
	// ticked cycle is never quiet.
	idler memreq.Idler
	dev   *hmc.Device

	// id and nodes are the node's place in a NUMA system (0 and 1 on
	// a single node); port returns targets homed on other nodes.
	id, nodes int
	port      RemotePort

	// threads holds the threads homed on this node: thread t at index
	// t/nodes.
	threads []*threadState
	// rotateIssue rotates issue priority across cores for fairness,
	// starting each cycle at core issueRR; a tile's cores issue in
	// thread order.
	rotateIssue bool
	issueRR     int

	// resp owns the target buffer mapping device tags to built
	// transactions and classifies every delivery.
	resp *core.ResponseRouter
	// deferred holds built transactions refused by a full target
	// buffer, resubmitted in order once entries free up.
	deferred []*memreq.Built
	// free holds delivered transactions' slots for reuse: the node
	// copies each Built that Tick returns into a slot, because the
	// response router keeps a pointer to it until delivery.
	free []*memreq.Built

	// busy records that the current cycle changed more than per-cycle
	// counters; Run skips ahead after a cycle that leaves it false.
	busy bool
	// everyCycle makes Run tick every cycle. A tile sets it, since the
	// multi-node system drives it; tests set it to check the skip.
	everyCycle bool

	// obs is the run's observability handle; nil when disabled, and
	// every use is nil-safe so the hot path pays only pointer checks.
	obs *obs.Obs

	// watchdog aborts a run that stops making forward progress.
	watchdog *sim.Watchdog
	// progress counts retirements + submissions + deliveries; any
	// movement re-arms the watchdog.
	progress uint64

	// audit is the request-lifecycle ledger; nil when disabled, and
	// every call is nil-safe like the obs handle.
	audit *audit.Ledger
	// chaos is the deterministic chaos engine; nil when disabled.
	chaos *chaos.Engine
	// retry is the requester-side poison-recovery policy; the zero
	// value keeps the fail-on-poison behaviour.
	retry memreq.RetryPolicy
	// inflightReq remembers the raw request behind each in-flight
	// (thread, tag) so a poisoned completion can be re-issued;
	// populated only while retry is enabled.
	inflightReq map[reqKey]*reqAttempt
	// retryPend holds re-issues waiting out their backoff.
	retryPend []retryPend
	// dupDeliver is a test-only fault hook: every delivered response
	// replays its audit-visible target retirement a second time, the
	// double-delivery bug the ledger must catch.
	dupDeliver bool

	spmAccesses      uint64
	memRequests      uint64
	remoteRequests   uint64
	failedRequests   uint64
	retriedRequests  uint64
	retireUnderflows uint64
	misrouted        uint64
}

// reqKey identifies one in-flight raw request.
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

// NewNode builds a node around a coalescer and device, returning a
// wrapped configuration error. The coalescer and device must be
// freshly constructed or Reset. Its cores take turns issuing first.
func NewNode(cfg Config, coal memreq.Coalescer, dev *hmc.Device) (*Node, error) {
	return newNode(cfg, coal, dev, nil, true)
}

// NewTile builds node cfg.Router.NodeID of a cfg.Router.Nodes-node
// system, which drives it through Issue and Serve and lands the
// targets port carries home through Retire. Its cores issue in thread
// order every cycle, the order the multi-node goldens were captured
// with.
func NewTile(cfg Config, coal memreq.Coalescer, dev *hmc.Device, port RemotePort) (*Node, error) {
	return newNode(cfg, coal, dev, port, false)
}

func newNode(cfg Config, coal memreq.Coalescer, dev *hmc.Device, port RemotePort, rotateIssue bool) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cpu: invalid node config: %w", err)
	}
	router, err := core.NewRouter(cfg.Router)
	if err != nil {
		return nil, fmt.Errorf("cpu: %w", err)
	}
	mac, _ := coal.(*core.MAC)
	rec, _ := coal.(memreq.Recycler)
	idler, _ := coal.(memreq.Idler)
	return &Node{
		cfg:         cfg,
		router:      router,
		coal:        coal,
		mac:         mac,
		rec:         rec,
		idler:       idler,
		dev:         dev,
		id:          cfg.Router.NodeID,
		nodes:       cfg.Router.Nodes,
		port:        port,
		rotateIssue: rotateIssue,
		everyCycle:  !rotateIssue,
		resp:        core.NewResponseRouter(cfg.TargetBufferDepth),
		watchdog:    sim.NewWatchdog(cfg.StallLimit),
	}, nil
}

// EnableAudit attaches a fresh request-lifecycle ledger. Call before
// Run; the end-of-run conservation report lands in Result.Audit.
func (n *Node) EnableAudit() {
	n.audit = audit.NewLedger()
	n.router.OnDrain = func(req memreq.RawRequest, now sim.Cycle) {
		n.audit.Drain(req, now)
	}
}

// SetChaos attaches a chaos engine (nil disables). Call before Run.
func (n *Node) SetChaos(e *chaos.Engine) { n.chaos = e }

// SetRetry installs the requester-side poison-recovery policy. Call
// before Run; the zero policy keeps fail-on-poison behaviour.
func (n *Node) SetRetry(p memreq.RetryPolicy) {
	n.retry = p
	if p.Enabled() && n.inflightReq == nil {
		n.inflightReq = make(map[reqKey]*reqAttempt)
	}
}

// AttachObs wires the node and every component beneath it (coalescer,
// device) into a run's observability layer. Call once before Run; a
// nil handle leaves everything a no-op.
func (n *Node) AttachObs(o *obs.Obs) {
	n.obs = o
	if !o.Enabled() {
		return
	}
	if a, ok := n.coal.(obs.Attacher); ok {
		a.AttachObs(o)
	}
	n.dev.AttachObs(o)

	reg := o.Reg()
	reg.Func("node.mem_requests", func() float64 { return float64(n.memRequests) })
	reg.Func("node.spm_accesses", func() float64 { return float64(n.spmAccesses) })
	reg.Func("node.failed_requests", func() float64 { return float64(n.failedRequests) })

	rec := o.Rec()
	rec.Watch("node.lsq.outstanding", func() float64 {
		total := 0
		for _, t := range n.threads {
			total += t.outstanding
		}
		return float64(total)
	})
	rec.Watch("node.inflight_tx", func() float64 { return float64(n.resp.Pending()) })
	rec.Watch("node.deferred_tx", func() float64 { return float64(len(n.deferred)) })
	rec.Watch("node.router.pending", func() float64 { return float64(n.router.Pending()) })
}

// Load installs the trace to replay: the threads homed on this node,
// thread t on node t % Nodes. Threads beyond the core count are
// rejected: the architecture runs one thread per core (§3).
func (n *Node) Load(tr *trace.Trace) error {
	active := 0
	for t := n.id; t < len(tr.Threads); t += n.nodes {
		if len(tr.Threads[t]) > 0 {
			active++
		}
	}
	if active > n.cfg.Cores {
		return fmt.Errorf("cpu: trace has %d active threads for %d cores", active, n.cfg.Cores)
	}
	n.threads = n.threads[:0]
	n.issueRR = 0
	for t := n.id; t < len(tr.Threads); t += n.nodes {
		th := tr.Threads[t]
		ts := &threadState{events: th}
		if len(th) > 0 {
			ts.gapLeft = uint32(th[0].Gap)
		}
		n.threads = append(n.threads, ts)
	}
	return nil
}

// Run replays the loaded trace to completion and returns the results.
// A run that stops making forward progress for Config.StallLimit
// cycles aborts with a *StallError carrying a diagnostic dump.
//
// After a quiet cycle, one that changed nothing but per-cycle counters,
// Run jumps to the node's next event and charges the skipped cycles'
// counters in bulk (sleep), so a saturated node costs one iteration per
// event rather than one per cycle. The result is the same either way.
func (n *Node) Run() (*Result, error) {
	for now := sim.Cycle(0); now < n.cfg.MaxCycles; now++ {
		n.busy = false
		n.tickChaos(now)
		n.Issue(now)
		n.Serve(now)
		n.obs.Rec().Sample(uint64(now))
		if n.Drained() {
			return n.Result(now + 1), nil
		}
		if n.watchdog.Check(now, n.progress) {
			return nil, n.Stall(now)
		}
		if !n.busy && !n.everyCycle {
			now = n.sleep(now)
		}
	}
	return nil, fmt.Errorf("cpu: run exceeded MaxCycles=%d (deadlock?)", n.cfg.MaxCycles)
}

// sleep skips the cycles after the quiet cycle now up to the node's
// next event: nothing moves in them, so each would repeat cycle now's
// counters exactly. It charges those counters in bulk and returns the
// last skipped cycle, or now when the next event is at now+1 or the
// device cannot name it.
func (n *Node) sleep(now sim.Cycle) sim.Cycle {
	h, ok := n.dev.NextEvent()
	if !ok {
		return now
	}
	h = min(h, n.cfg.MaxCycles)
	if iv := n.obs.Rec().Interval(); iv > 0 {
		// Every sample cycle runs in full, so samples see the state an
		// every-cycle run sees.
		h = min(h, sim.Cycle((uint64(now)/iv+1)*iv))
	}
	inGap := false
	for _, t := range n.threads {
		switch {
		case t.cause == causeGap:
			h = min(h, now+sim.Cycle(t.gapLeft)+1)
			inGap = true
		case t.spmBusy != 0:
			h = min(h, t.spmBusy)
		}
	}
	if !inGap {
		// Progress stands still, so the watchdog may fire in the gap:
		// stop at that cycle, which then stalls exactly as it would.
		h = min(h, n.watchdog.FiresAt())
	}
	if h <= now+1 {
		return now
	}
	k := uint64(h - now - 1)
	for _, t := range n.threads {
		switch t.cause {
		case causeGap:
			t.gapLeft -= uint32(k)
			t.retired += k
			n.progress += k
		case causeLSQ:
			t.stallLSQ += k
		case causeRouter:
			t.stallRouter += k
		case causeFence:
			t.stallFence += k
		}
	}
	if n.router.Pending() > 0 {
		// The router offered its head every cycle and was refused.
		n.coal.Stats().PushRejects += k
	}
	if n.mac != nil {
		n.mac.Aggregator().SampleOccupancyN(k)
	}
	if n.rotateIssue && len(n.threads) > 0 {
		n.issueRR = int((uint64(n.issueRR) + k) % uint64(len(n.threads)))
	}
	n.watchdog.Check(h-1, n.progress)
	return h - 1
}

// Issue is the first half of a node cycle: poisoned requests whose
// backoff expired re-enter the router, then every core gets its turn.
func (n *Node) Issue(now sim.Cycle) {
	n.pumpRetries(now)
	n.tickCores(now)
}

// Serve is the second half of a node cycle: the router feeds the
// coalescer one raw request (§4.1), built transactions go to the
// device, and completed responses are routed back to their threads.
func (n *Node) Serve(now sim.Cycle) {
	if n.router.DrainToMAC(n.coal, now) {
		n.busy = true
	}
	n.tickCoalescer(now)
	n.deliverResponses(now)
}

// Router returns the node's request router, whose Global and Remote
// queues the multi-node system's interconnect drains and fills.
func (n *Node) Router() *core.Router { return n.router }

// Progress counts the node's forward-progress events (retirements,
// submissions, deliveries) for a watchdog.
func (n *Node) Progress() uint64 { return n.progress }

// tickChaos rolls the chaos engine for this cycle and applies the
// stressors that act on the request/device side: transient vault
// unavailability and synthetic fence bursts. (Response-side stressors
// act through chaos.Filter in deliverResponses; submit freezes through
// SubmitFrozen in tickCoalescer.) A fence that meets a full router
// queue is dropped — the backpressure it found is already stress.
func (n *Node) tickChaos(now sim.Cycle) {
	if n.chaos == nil {
		return
	}
	n.busy = true // the engine draws every cycle
	n.chaos.Tick(now)
	if v, until, ok := n.chaos.TakeVaultStall(); ok {
		n.dev.StallVault(v, until)
	}
	if l, until, ok := n.chaos.TakeCubeLinkStall(); ok {
		n.dev.StallCubeLink(l, until)
	}
	for n.chaos.TakeFence() {
		if !n.router.OfferLocal(memreq.RawRequest{Fence: true}) {
			break
		}
	}
}

// pumpRetries re-offers poisoned requests whose backoff expired. The
// router may refuse (queue full); the request then retries next cycle.
func (n *Node) pumpRetries(now sim.Cycle) {
	if len(n.retryPend) == 0 {
		return
	}
	n.busy = true
	keep := n.retryPend[:0]
	for _, p := range n.retryPend {
		if p.due > now || !n.router.OfferLocal(p.req) {
			keep = append(keep, p)
			continue
		}
		n.retriedRequests++
		n.progress++
		n.audit.Reissue(p.req, now)
	}
	n.retryPend = keep
}

// tickCores advances every thread by one cycle, starting at core
// issueRR.
func (n *Node) tickCores(now sim.Cycle) {
	for _, t := range n.threads[n.issueRR:] {
		n.tickThread(t, now)
	}
	for _, t := range n.threads[:n.issueRR] {
		n.tickThread(t, now)
	}
	if n.rotateIssue && len(n.threads) > 0 {
		if n.issueRR++; n.issueRR == len(n.threads) {
			n.issueRR = 0
		}
	}
}

// tickThread advances one thread by one cycle. A cycle that changes
// more than the thread's counters marks the node busy; every other
// cycle records its cause for sleep to repeat.
func (n *Node) tickThread(t *threadState, now sim.Cycle) {
	t.cause = causeNone
	// Finish an SPM access in flight.
	if t.spmBusy != 0 {
		if now < t.spmBusy {
			return
		}
		t.spmBusy = 0
		n.busy = true
	}
	// Execute non-memory instructions one per cycle.
	if t.gapLeft > 0 {
		t.gapLeft--
		t.retired++
		n.progress++
		t.cause = causeGap
		return
	}
	if t.pc >= len(t.events) {
		return
	}
	e := t.events[t.pc]

	// Scratchpad hits retire locally without touching the MAC.
	if e.Op.IsMemory() && addr.IsSPM(e.Addr) {
		t.spmBusy = now + n.cfg.SPMLatency
		t.retired++
		n.progress++
		n.spmAccesses++
		n.advance(t)
		return
	}

	if e.Op == trace.Fence {
		// A fence issues once its thread's own requests retire
		// (program order), then flows through the MAC to order the
		// global stream.
		if t.outstanding > 0 {
			t.stallFence++
			t.cause = causeFence
			return
		}
		if !n.router.OfferLocal(memreq.RawRequest{Fence: true, Thread: e.Thread}) {
			t.stallRouter++
			t.cause = causeRouter
			return
		}
		t.retired++
		n.progress++
		n.advance(t)
		return
	}

	// Memory request: needs an LSQ slot and router space.
	if t.outstanding >= n.cfg.MaxOutstanding {
		t.stallLSQ++
		t.cause = causeLSQ
		return
	}
	tag := t.nextTag
	req := memreq.RawRequest{
		Addr:   e.Addr,
		Size:   e.Size,
		Store:  e.Op == trace.Store,
		Atomic: e.Op == trace.Atomic,
		Thread: e.Thread,
		Tag:    tag,
	}
	if !n.router.OfferLocal(req) {
		t.stallRouter++
		t.cause = causeRouter
		return
	}
	t.nextTag++
	t.outstanding++
	t.issuedAt.Put(uint64(tag), now)
	t.retired++
	n.progress++
	n.memRequests++
	if n.nodes > 1 && n.router.Dest(req.Addr) != n.id {
		n.remoteRequests++
	}
	n.audit.Issue(req, now)
	if n.retry.Enabled() {
		n.inflightReq[reqKey{req.Thread, req.Tag}] = &reqAttempt{req: req}
	}
	n.advance(t)
}

// advance moves a thread to its next event, loading its gap count:
// the thread issued, so the cycle is busy.
func (n *Node) advance(t *threadState) {
	n.busy = true
	t.pc++
	if t.pc < len(t.events) {
		t.gapLeft = uint32(t.events[t.pc].Gap)
	}
}

// tickCoalescer advances the coalescer and submits built transactions.
// While the device's in-flight tag space is exhausted, the coalescer is
// not ticked at all: the host interface backpressures, pops stall, and
// ARQ entries dwell — the feedback that raises coalescing opportunity
// exactly when the memory device is the bottleneck.
func (n *Node) tickCoalescer(now sim.Cycle) {
	if n.chaos.SubmitFrozen(now) {
		// Chaos-injected ARQ backpressure burst: the submit stage is
		// frozen, transactions back up inside the coalescer.
		n.sampleCoalescer()
		return
	}
	if len(n.deferred) > 0 {
		n.busy = true // a refused Register counts a reject
		n.submitDeferred(now)
		if len(n.deferred) > 0 {
			// Still blocked on the target buffer: don't pull more
			// transactions out of the coalescer, or ordering breaks.
			n.sampleCoalescer()
			return
		}
	}
	if !n.dev.CanAccept() {
		n.sampleCoalescer()
		return
	}
	// Ask before Tick: a Tick that changes state may leave the
	// coalescer idle, and the cycle was still busy.
	if n.everyCycle || n.idler == nil || !n.idler.Idle() {
		n.busy = true
	}
	out := n.coal.Tick(now)
	for i := range out {
		b := n.hold(&out[i])
		if !n.submit(b, now) {
			n.deferred = append(n.deferred, b)
		}
	}
}

// hold copies b, which lives in Tick's reused slice, into a free slot.
func (n *Node) hold(b *memreq.Built) *memreq.Built {
	var s *memreq.Built
	if k := len(n.free); k > 0 {
		s = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		s = new(memreq.Built)
	}
	*s = *b
	return s
}

// submit registers b in the target buffer and sends it to the device.
// It reports false when the full buffer refuses it.
func (n *Node) submit(b *memreq.Built, now sim.Cycle) bool {
	tag, ok := n.resp.Register(b, now)
	if !ok {
		return false
	}
	n.bindTargets(b, tag, now)
	b.Span.MarkSubmit(uint64(now))
	n.dev.Submit(b.Req, now)
	n.progress++
	return true
}

// bindTargets records in the ledger which device transaction carries
// each raw request.
func (n *Node) bindTargets(b *memreq.Built, tag uint64, now sim.Cycle) {
	if n.audit == nil {
		return
	}
	for _, tgt := range b.Targets {
		if tgt.Cont {
			continue // the head half owns the lifecycle record
		}
		n.audit.Bind(tgt, tag, now)
	}
}

// sampleCoalescer records the MAC's ARQ occupancy on cycles where
// backpressure keeps Tick (and its own sampling) from running, so the
// occupancy mean covers every cycle — including the dwell phases where
// coalescing opportunity is highest.
func (n *Node) sampleCoalescer() {
	if n.mac != nil {
		n.mac.SampleOccupancy()
	}
}

// submitDeferred retries transactions previously refused by a full
// target buffer, in their original order.
func (n *Node) submitDeferred(now sim.Cycle) {
	for len(n.deferred) > 0 && n.dev.CanAccept() {
		if !n.submit(n.deferred[0], now) {
			return
		}
		n.deferred = n.deferred[:copy(n.deferred, n.deferred[1:])]
	}
}

// deliverResponses routes completed device responses back to threads —
// the response router of §3.3. A target homed on another node goes to
// the remote port; every other target lands through Retire. Malformed
// deliveries (duplicates, unknown tags, targets naming absent threads,
// retire underflows) are counted and survived rather than panicking:
// under fault injection they are expected events, and a simulator that
// dies on them cannot report what went wrong.
func (n *Node) deliverResponses(now sim.Cycle) {
	resps := n.chaos.Filter(now, n.dev.Tick(now))
	if len(resps) > 0 {
		n.busy = true
	}
	for _, resp := range resps {
		b, status := n.resp.Deliver(resp)
		switch status {
		case core.RespDuplicate, core.RespUnknown:
			continue // counted by the response router; nothing to retire
		}
		// Notify the coalescer first: MSHR-style designs fold
		// late-merged targets into b.Targets here. Poisoned
		// transactions complete too — their targets retire with an
		// error status, and fences must not wait on them forever.
		n.coal.Completed(b)
		n.progress++
		b.Span.MarkRespond(uint64(now))
		n.obs.Trace().Transaction(resp.Tag, b.Span)
		poisoned := status == core.RespPoisoned
		for _, tgt := range b.Targets {
			if n.nodes > 1 {
				if home := int(tgt.Thread) % n.nodes; home != n.id {
					n.port.ReturnRemote(n.id, home, tgt, b.Req.Kind, poisoned, now)
					continue
				}
			}
			if !poisoned {
				n.audit.Credit(tgt, b.Req.Addr, b.Req.Data, now)
			}
			n.Retire(tgt, poisoned, now)
		}
		if n.dupDeliver && !poisoned {
			// Test-only injected bug: replay the audit-visible
			// retirement, the double delivery the ledger must catch.
			for _, tgt := range b.Targets {
				if tgt.Cont {
					continue
				}
				n.audit.Credit(tgt, b.Req.Addr, b.Req.Data, now)
				n.audit.Retire(tgt, now)
			}
		}
		// Every target has been consumed (retired or handed to the
		// port) and the span recorded: hand the transaction's slab back
		// to the coalescer, and its slot to the free list.
		if n.rec != nil {
			n.rec.Recycle(b)
		}
		*b = memreq.Built{}
		n.free = append(n.free, b)
	}
}

// Retire lands one completed target at its thread on this node: the
// request's LSQ slot frees and its latency is observed, or, when the
// transaction was poisoned, it fails or is re-issued under the retry
// policy. Local deliveries and targets that return from other nodes
// both land here; the ledger's byte credit happens where the
// transaction was delivered.
func (n *Node) Retire(tgt memreq.Target, poisoned bool, now sim.Cycle) {
	if tgt.Cont {
		// Continuation half of a window-split request: its data is
		// delivered, but the head half owns the request's one LSQ slot
		// and latency observation. A poisoned continuation is degraded
		// data loss — the head's transaction is independently live, so
		// the request cannot be re-issued without risking a double
		// delivery; the ledger waives its bytes.
		if poisoned {
			n.audit.Forgive(tgt, now)
		}
		return
	}
	i := int(tgt.Thread)
	if n.nodes > 1 {
		i /= n.nodes
	}
	if i >= len(n.threads) {
		n.misrouted++
		return
	}
	if poisoned && n.scheduleRetry(tgt, now) {
		// The LSQ slot stays occupied and issuedAt keeps the original
		// issue cycle: the request's latency spans its retries, and
		// fences keep waiting for it.
		return
	}
	t := n.threads[i]
	if t.outstanding <= 0 {
		n.retireUnderflows++
		return
	}
	t.outstanding--
	n.progress++
	if poisoned {
		n.failedRequests++
		n.audit.Fail(tgt, now)
	} else {
		n.audit.Retire(tgt, now)
	}
	if n.retry.Enabled() {
		delete(n.inflightReq, reqKey{tgt.Thread, tgt.Tag})
	}
	if issue, ok := t.issuedAt.Take(uint64(tgt.Tag)); ok {
		t.latency.Observe(uint64(now - issue))
	}
}

// scheduleRetry queues a poisoned request for re-issue if the retry
// policy has budget left. It reports whether the retirement should be
// suppressed (the request lives on).
func (n *Node) scheduleRetry(tgt memreq.Target, now sim.Cycle) bool {
	if !n.retry.Enabled() {
		return false
	}
	a, ok := n.inflightReq[reqKey{tgt.Thread, tgt.Tag}]
	if !ok || a.attempts >= n.retry.MaxRetries {
		return false
	}
	a.attempts++
	n.retryPend = append(n.retryPend, retryPend{due: now + n.retry.Backoff, req: a.req})
	n.audit.Retry(tgt, now)
	return true
}

// Drained reports whether all of the node's work has retired.
func (n *Node) Drained() bool {
	if n.router.Pending() > 0 || n.coal.Pending() > 0 || n.coal.Inflight() > 0 ||
		n.dev.Pending() > 0 || len(n.deferred) > 0 ||
		n.chaos.HeldResponses() > 0 || len(n.retryPend) > 0 {
		return false
	}
	for _, t := range n.threads {
		if !t.done() {
			return false
		}
	}
	return true
}

// Result summarizes the node's run as of cycles.
func (n *Node) Result(cycles sim.Cycle) *Result {
	r := &Result{
		Cycles:           cycles,
		MemRequests:      n.memRequests,
		RemoteRequests:   n.remoteRequests,
		SPMAccesses:      n.spmAccesses,
		Coalescer:        *n.coal.Stats(),
		Device:           *n.dev.Stats(),
		Responses:        n.resp.Stats(),
		FailedRequests:   n.failedRequests,
		RetriedRequests:  n.retriedRequests,
		RetireUnderflows: n.retireUnderflows,
		Misrouted:        n.misrouted,
	}
	if n.audit.Enabled() {
		r.Audit = n.audit.Finish(cycles)
	}
	r.Chaos = n.chaos.Stats()
	if st := n.dev.CubeStats(); st != nil {
		snap := *st
		r.Cube = &snap
	}
	for _, t := range n.threads {
		r.Instructions += t.retired
		r.IssueStalls += t.stallLSQ + t.stallRouter + t.stallFence
		r.StallLSQ += t.stallLSQ
		r.StallRouter += t.stallRouter
		r.StallFence += t.stallFence
		r.RequestLatency.Merge(&t.latency)
	}
	if mac, ok := n.coal.(*core.MAC); ok {
		r.ARQOccupancy = mac.Aggregator().OccupancyMean()
	}
	r.RouterLocal, r.RouterGlobal, r.RouterRemote = n.router.Stats()
	return r
}

// StallError reports a simulation that stopped making forward
// progress: no instruction retired, no transaction submitted, and no
// response delivered for more than the watchdog's stall limit —
// typically a lost response or a resource leak. It carries the state
// a post-mortem needs instead of letting the run spin to MaxCycles.
type StallError struct {
	// Cycle is when the watchdog fired.
	Cycle sim.Cycle
	// StallLimit is the configured no-progress bound.
	StallLimit sim.Cycle
	// OldestTxTag/OldestTxAge identify the longest-outstanding
	// transaction in the response router's target buffer (the prime
	// suspect for a lost response); OldestTxAge is 0 when the target
	// buffer is empty.
	OldestTxTag uint64
	OldestTxAge sim.Cycle
	// OldestTxKind and OldestTxAddr are that transaction's kind and
	// physical address.
	OldestTxKind hmc.Kind
	OldestTxAddr uint64
	// OutstandingTx and DeferredTx are target-buffer occupancy and
	// the holding-slot depth.
	OutstandingTx int
	DeferredTx    int
	// RouterPending, CoalescerPending, CoalescerInflight and
	// DevicePending are the queue/ARQ occupancies at the stall.
	RouterPending     int
	CoalescerPending  int
	CoalescerInflight int
	DevicePending     int
	// ThreadsBlocked counts threads with unretired work.
	ThreadsBlocked int
	// AuditInFlight is the ledger's count of requests without a
	// terminal outcome at the stall (0 when auditing is disabled).
	AuditInFlight int
	// AuditOldest is the ledger's oldest in-flight request rendered
	// with its holding component ("" when auditing is disabled or
	// nothing is in flight) — the causal diagnostic for the stall.
	AuditOldest string
	// Dump is the rendered diagnostic.
	Dump string
}

// Error formats the stall with its diagnostic dump.
func (e *StallError) Error() string {
	return fmt.Sprintf("cpu: no forward progress for %d cycles at cycle %d (lost response or resource leak?)\n%s",
		e.StallLimit, e.Cycle, e.Dump)
}

// Stall snapshots the node's state at cycle now into a *StallError.
func (n *Node) Stall(now sim.Cycle) *StallError {
	e := &StallError{
		Cycle:             now,
		StallLimit:        n.cfg.StallLimit,
		OutstandingTx:     n.resp.Pending(),
		DeferredTx:        len(n.deferred),
		RouterPending:     n.router.Pending(),
		CoalescerPending:  n.coal.Pending(),
		CoalescerInflight: n.coal.Inflight(),
		DevicePending:     n.dev.Pending(),
	}
	for _, t := range n.threads {
		if !t.done() {
			e.ThreadsBlocked++
		}
	}
	kvs := []stats.KV{
		{Key: "threads blocked", Value: e.ThreadsBlocked},
		{Key: "request router pending", Value: e.RouterPending},
		{Key: "coalescer pending (ARQ)", Value: e.CoalescerPending},
		{Key: "coalescer inflight", Value: e.CoalescerInflight},
		{Key: "device pending", Value: e.DevicePending},
		{Key: "target buffer outstanding", Value: e.OutstandingTx},
		{Key: "deferred transactions", Value: e.DeferredTx},
	}
	if tag, registered, b, ok := n.resp.Oldest(); ok {
		e.OldestTxTag = tag
		e.OldestTxAge = now - registered
		e.OldestTxKind = b.Req.Kind
		e.OldestTxAddr = b.Req.Addr
		kvs = append(kvs,
			stats.KV{Key: "oldest in-flight tag", Value: tag},
			stats.KV{Key: "oldest in-flight age", Value: fmt.Sprintf("%d cycles", e.OldestTxAge)},
			stats.KV{Key: "oldest in-flight request", Value: fmt.Sprintf("%s 0x%x (%dB, %d targets)",
				b.Req.Kind, b.Req.Addr, b.Req.Data, len(b.Targets))},
		)
	}
	ds := n.dev.Stats()
	if ds.DroppedResponses > 0 || ds.PoisonedResponses > 0 || ds.TokenStalls > 0 {
		kvs = append(kvs,
			stats.KV{Key: "device dropped responses", Value: ds.DroppedResponses},
			stats.KV{Key: "device poisoned responses", Value: ds.PoisonedResponses},
			stats.KV{Key: "device token stalls", Value: ds.TokenStalls},
		)
	}
	if n.audit.Enabled() {
		e.AuditInFlight = n.audit.InFlight()
		counts := n.audit.HolderCounts()
		for _, s := range []audit.State{
			audit.StateRouted, audit.StateCoalescing,
			audit.StateInflight, audit.StateAwaitRetry,
		} {
			if counts[s] > 0 {
				kvs = append(kvs, stats.KV{
					Key:   fmt.Sprintf("audit: requests held by %s", s),
					Value: counts[s],
				})
			}
		}
		if o, ok := n.audit.Oldest(); ok {
			e.AuditOldest = o.String()
			kvs = append(kvs, stats.KV{Key: "audit: oldest in-flight request", Value: e.AuditOldest})
		}
	}
	if cs := n.chaos.Stats(); cs != nil {
		kvs = append(kvs, stats.KV{Key: "chaos", Value: cs.String()})
	}
	e.Dump = stats.FormatKV(kvs)
	return e
}
