package coalesce

import (
	"fmt"
	"math/bits"

	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// WarpConfig parameterizes the SIMT warp-lane coalescer.
type WarpConfig struct {
	// Lanes is the warp width: the number of raw requests gathered
	// into one warp. Must be a power of two in [4, 64].
	Lanes int
	// MaxWarps bounds warps alive at once (dispatching or suspended
	// awaiting responses); a full scoreboard stalls gathering.
	MaxWarps int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultWarpConfig returns an 8-lane, 4-warp configuration: one warp
// per hardware thread of the paper's 8-core node, with the lane block
// (4B x 8 lanes = 32B) spanning two FLITs.
func DefaultWarpConfig() WarpConfig {
	return WarpConfig{Lanes: 8, MaxWarps: 4, QueueDepth: 64}
}

// Validate reports the first configuration error, or nil.
func (c WarpConfig) Validate() error {
	switch {
	case c.Lanes < 4 || c.Lanes > 64 || c.Lanes&(c.Lanes-1) != 0:
		return fmt.Errorf("coalesce: Warp Lanes must be a power of two in [4, 64], got %d", c.Lanes)
	case c.MaxWarps <= 0 || c.MaxWarps > 256:
		return fmt.Errorf("coalesce: Warp MaxWarps must be in [1, 256], got %d", c.MaxWarps)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: Warp QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// warpLane is one gathered raw request and its service state.
type warpLane struct {
	req    memreq.RawRequest
	served bool
}

// warpState is one in-flight warp: gathered lanes, the count not yet
// covered by an emitted mask group, and the transactions still awaiting
// device responses. A warp whose lanes are all served is "suspended"
// until outstanding reaches zero, which frees its scoreboard slot
// (resume, in SIMT terms: the threads may proceed).
type warpState struct {
	lanes       []warpLane
	unserved    int
	outstanding int
	masks       uint64
	store       bool
	dispatched  bool
}

// Warp is a SIMT-style warp-lane coalescer, after the RISC-V GPU
// memory units: consecutive raw requests of the same kind gather into a
// warp of up to Lanes lanes; each cycle a leader lane is picked among
// the unserved lanes and every lane in the leader's block joins its
// mask group. If all grouped lanes carry the leader's exact address the
// group is served by one narrow SameAddress transaction; otherwise one
// SameBlock transaction fetches the whole lane block. The warp suspends
// once every lane is covered and resumes (freeing its slot) when the
// last of its transactions completes.
//
// Against MAC this models the GPU answer to the same problem: spatial
// grouping is limited to what one warp exhibits at one instant, with no
// cross-warp window — divergent warps pay one transaction per distinct
// block.
type Warp struct {
	intake
	cfg        WarpConfig
	logLanes   uint
	blockShift uint

	cur  *warpState
	live int

	// warps pools retired warpState values (lane arrays survive).
	warps []*warpState
}

var _ memreq.Coalescer = (*Warp)(nil)
var _ memreq.Recycler = (*Warp)(nil)
var _ memreq.Idler = (*Warp)(nil)
var _ obs.Attacher = (*Warp)(nil)

// NewWarp builds the SIMT frontend, returning an error on bad config.
func NewWarp(cfg WarpConfig) (*Warp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	logLanes := uint(bits.TrailingZeros(uint(cfg.Lanes)))
	w := &Warp{
		intake:   newIntake(cfg.QueueDepth, cfg.Lanes),
		cfg:      cfg,
		logLanes: logLanes,
		// The lane block is Lanes words of 4 bytes, the exemplar's
		// addr >> (LOG_LANES+2); Lanes >= 4 keeps it FLIT-aligned.
		blockShift: logLanes + 2,
	}
	w.st.Warp = &memreq.WarpStats{}
	return w, nil
}

// blockBytes returns the lane-block span in bytes.
func (w *Warp) blockBytes() uint32 { return uint32(1) << w.blockShift }

// takeWarp returns a pooled (or fresh) empty warpState.
func (w *Warp) takeWarp() *warpState {
	if n := len(w.warps); n > 0 {
		ws := w.warps[n-1]
		w.warps = w.warps[:n-1]
		ws.lanes = ws.lanes[:0]
		ws.unserved, ws.outstanding, ws.masks = 0, 0, 0
		ws.store, ws.dispatched = false, false
		return ws
	}
	return &warpState{lanes: make([]warpLane, 0, w.cfg.Lanes)}
}

// Tick emits at most one mask-group transaction per cycle: it first
// serves the warp being dispatched, gathering a new warp from the queue
// when none is active and the scoreboard has a free slot.
func (w *Warp) Tick(now sim.Cycle) []memreq.Built {
	if w.cur == nil {
		if w.live >= w.cfg.MaxWarps {
			return nil // scoreboard full: stall until a warp resumes
		}
		head, ok := w.head()
		if !ok {
			return nil
		}
		if head.Atomic {
			b := w.bypass(head)
			w.st.TargetsPerTx.Observe(1)
			return w.one(b)
		}
		w.gather(head.Store)
	}
	return w.emitMaskGroup()
}

// gather forms the next warp from the run of queued requests of the
// head's kind.
func (w *Warp) gather(store bool) {
	ws := w.takeWarp()
	ws.store = store
	for len(ws.lanes) < w.cfg.Lanes {
		r, ok := w.q.Peek()
		if !ok || r.Fence || r.Atomic || r.Store != ws.store {
			break // a warp executes one instruction: same kind only
		}
		w.q.Pop()
		ws.lanes = append(ws.lanes, warpLane{req: r})
	}
	ws.unserved = len(ws.lanes)
	w.cur = ws
	w.live++
	w.st.Warp.WarpsFormed++
}

// emitMaskGroup serves one mask group of the active warp: the leader is
// the first unserved lane, the group is every unserved lane in the
// leader's block, and the transaction is narrow (SameAddress) when all
// grouped lanes carry the leader's exact address, else the whole block.
func (w *Warp) emitMaskGroup() []memreq.Built {
	ws := w.cur
	if ws == nil || ws.unserved == 0 {
		return nil
	}
	var leader *memreq.RawRequest
	for i := range ws.lanes {
		if !ws.lanes[i].served {
			leader = &ws.lanes[i].req
			break
		}
	}
	leaderBlock := leader.Addr >> w.blockShift
	sameAddr := true
	targets := w.pool.Take()
	var end uint64
	for i := range ws.lanes {
		ln := &ws.lanes[i]
		if ln.served || ln.req.Addr>>w.blockShift != leaderBlock {
			continue
		}
		if ln.req.Addr != leader.Addr {
			sameAddr = false
		}
		ln.served = true
		ws.unserved--
		targets = append(targets, target(ln.req))
		if base, n := ln.req.Span(); base+uint64(n) > end {
			end = base + uint64(n)
		}
	}

	// The transaction covers every grouped lane's Span. One narrow
	// access from the shared FLIT serves lanes that all carry the
	// leader's address; a divergent group fetches the whole lane
	// block, extended when a lane runs past the block end.
	base, _ := leader.Span()
	size := uint32(end - base)
	if sameAddr {
		w.st.Warp.SameAddrTx++
	} else {
		base = leaderBlock << w.blockShift
		size = max(uint32(end-base), w.blockBytes())
		w.st.Warp.SameBlockTx++
	}

	b := memreq.Built{
		Req:     hmc.Request{Kind: leader.Kind(), Addr: base, Data: size},
		Targets: targets,
		Handle:  ws,
	}
	ws.outstanding++
	ws.masks++
	w.emit(&b)
	w.st.TargetsPerTx.Observe(uint64(len(targets)))
	if ws.unserved == 0 {
		// Every lane covered: the warp suspends awaiting responses.
		ws.dispatched = true
		w.st.Warp.WarpsSuspended++
		w.st.Warp.MasksPerWarp.Observe(ws.masks)
		w.cur = nil
	}
	return w.one(b)
}

// Idle implements memreq.Idler: no warp is dispatching, and either the
// scoreboard is full or the queue is idle.
func (w *Warp) Idle() bool {
	return w.cur == nil && (w.live >= w.cfg.MaxWarps || w.idle())
}

// Completed signals one transaction done; the last completion of a
// fully dispatched warp resumes it, freeing the scoreboard slot.
func (w *Warp) Completed(b *memreq.Built) {
	w.complete()
	ws, ok := b.Handle.(*warpState)
	if !ok {
		return // atomic bypass: no warp attached
	}
	if ws.outstanding == 0 {
		panic("coalesce: Warp.Completed with idle warp handle")
	}
	ws.outstanding--
	if ws.dispatched && ws.outstanding == 0 {
		w.live--
		w.warps = append(w.warps, ws)
	}
}

// Pending returns queued raw requests plus unserved gathered lanes
// (including a held fence).
func (w *Warp) Pending() int {
	p := w.intake.Pending()
	if w.cur != nil {
		p += w.cur.unserved
	}
	return p
}

// Reset restores the initial empty state (the pools survive).
func (w *Warp) Reset() {
	w.reset()
	if w.cur != nil {
		w.warps = append(w.warps, w.cur)
		w.cur = nil
	}
	w.live = 0
	w.st.Warp = &memreq.WarpStats{}
}

// AttachObs registers the warp frontend's scoreboard and queue state
// into a run's observability layer.
func (w *Warp) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("warp.live", func() float64 { return float64(w.live) })
	reg.Func("warp.queue", func() float64 { return float64(w.q.Len()) })
	rec := o.Rec()
	rec.Watch("warp.live", func() float64 { return float64(w.live) })
	rec.Watch("warp.queue", func() float64 { return float64(w.q.Len()) })
}
