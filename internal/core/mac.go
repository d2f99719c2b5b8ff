// Package core implements MAC, the Memory Access Coalescer of the
// paper — the primary contribution of the reproduction.
//
// A MAC unit sits between a multicore node and a 3D-stacked memory
// device and consists of (paper §3.2, §4):
//
//   - the Raw Request Aggregator: an Aggregated Request Queue (ARQ)
//     whose entries merge raw requests targeting the same 256B HMC row
//     and the same request type, tracking requested FLITs in a per-row
//     FLIT map and buffering response-routing targets;
//   - the two-stage pipelined Request Builder, which OR-reduces the
//     FLIT map into four 64B-chunk bits and sizes the emitted HMC
//     transaction (64/128/256B) through a 16-entry FLIT table;
//   - the request router (local/global/remote classification, package
//     router.go) and the response router (part of the node driver,
//     which owns the outstanding-transaction table).
package core

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// Config parameterizes one MAC unit.
type Config struct {
	// ARQ sizes the raw request aggregator.
	ARQ AggregatorConfig
	// BypassSize is the least payload of a bypassed (B bit) transaction.
	// The design forwards the raw request directly, sized by its FLIT
	// span: one FLIT unless the request crosses a FLIT boundary.
	BypassSize uint32
	// FineBuilder switches the request builder to 16B (FLIT)
	// granularity instead of the paper's 64B chunks — an ablation
	// of the §4.2 control-overhead/data-utilization trade.
	FineBuilder bool
}

// DefaultConfig returns the paper's evaluated configuration
// (Table 1: 32-entry ARQ, 64B entries).
func DefaultConfig() Config {
	return Config{ARQ: DefaultAggregatorConfig(), BypassSize: addr.FlitBytes}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if err := c.ARQ.Validate(); err != nil {
		return err
	}
	if c.BypassSize != 0 && (c.BypassSize%addr.FlitBytes != 0 || c.BypassSize > addr.RowBytes) {
		return fmt.Errorf("core: BypassSize must be a FLIT multiple <= %d, got %d",
			addr.RowBytes, c.BypassSize)
	}
	return nil
}

// SpaceBytes returns the hardware area model of the whole MAC unit
// (paper §5.3.3): the ARQ entries plus the builder's FLIT map and
// FLIT table. Comparators and OR gates are reported separately.
func (c Config) SpaceBytes() int { return c.ARQ.SpaceBytes() + BuilderSpaceBytes }

// MAC is the complete Memory Access Coalescer unit. It implements
// memreq.Coalescer.
type MAC struct {
	cfg Config
	agg *Aggregator
	bld *Builder

	// nextPop is the earliest cycle the ARQ may pop again (one pop
	// per PopInterval cycles).
	nextPop sim.Cycle
	// heldFence is set while a popped fence waits for outstanding
	// transactions to drain.
	heldFence bool
	inflight  int
	// out is Tick's result slice, reused from call to call.
	out []memreq.Built

	st *memreq.Stats
	// obs is the run's observability handle (nil when disabled).
	obs *obs.Obs
}

var (
	_ memreq.Coalescer = (*MAC)(nil)
	_ memreq.Idler     = (*MAC)(nil)
	_ obs.Attacher     = (*MAC)(nil)
)

// New builds a MAC unit, returning a wrapped configuration error so
// callers assembling systems at run time (the facade, the NUMA
// builder) can surface it instead of crashing.
func New(cfg Config) (*MAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid MAC config: %w", err)
	}
	if cfg.BypassSize == 0 {
		cfg.BypassSize = addr.FlitBytes
	}
	agg := NewAggregator(cfg.ARQ)
	bld := NewBuilder(agg.Window())
	if cfg.FineBuilder {
		bld = NewFineBuilder(agg.Window())
	}
	return &MAC{
		cfg: cfg,
		agg: agg,
		bld: bld,
		st:  memreq.NewStats(),
	}, nil
}

// MustNew is New panicking on error, for tests and static fixtures.
func MustNew(cfg Config) *MAC {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the unit configuration.
func (m *MAC) Config() Config { return m.cfg }

// Aggregator exposes the ARQ for white-box tests and occupancy stats.
func (m *MAC) Aggregator() *Aggregator { return m.agg }

// SampleOccupancy records one ARQ occupancy observation. Tick does
// this itself; drivers that skip Tick on backpressured cycles call it
// directly so OccupancyMean stays a true per-cycle time average.
func (m *MAC) SampleOccupancy() { m.agg.SampleOccupancy() }

// AttachObs wires the unit into a run's observability layer: the ARQ
// counters and occupancy gauge register into the metrics registry, and
// — when a tracer is present — ARQ entries start carrying TxSpans that
// drivers render as per-transaction Chrome trace spans.
func (m *MAC) AttachObs(o *obs.Obs) {
	m.obs = o
	m.agg.attachObs(o)
	reg := o.Reg()
	reg.Func("mac.inflight", func() float64 { return float64(m.inflight) })
	reg.Func("mac.pending", func() float64 { return float64(m.Pending()) })
}

// Push offers one raw request at cycle now (≤1 per cycle in the timed
// model; the request router enforces the rate). It reports acceptance.
func (m *MAC) Push(r memreq.RawRequest, now sim.Cycle) bool {
	if !m.agg.Push(r, now) {
		m.st.PushRejects++
		return false
	}
	m.st.CountPush(r)
	return true
}

// Tick advances the MAC one cycle: the builder pipeline moves, and —
// at most once every PopInterval cycles — the ARQ head pops into the
// builder, bypasses directly to memory, or (for fences) holds until
// the outstanding count drains.
func (m *MAC) Tick(now sim.Cycle) []memreq.Built {
	m.out = m.tick(now, m.out[:0])
	return m.out
}

// tick is Tick appending to out.
func (m *MAC) tick(now sim.Cycle, out []memreq.Built) []memreq.Built {
	// Occupancy is sampled here — once per tick — rather than inside
	// Push, so drain phases weigh into the mean (the push-time
	// sampling bias fix).
	m.agg.SampleOccupancy()

	if built, ok := m.bld.Tick(now); ok {
		m.note(&built)
		out = append(out, built)
	}

	// Fence release: a held fence retires once every earlier
	// transaction has completed and the builder is empty.
	if m.heldFence {
		if m.inflight == 0 && !m.bld.Busy() && len(out) == 0 {
			m.heldFence = false
		}
		return out
	}

	if now < m.nextPop {
		return out
	}

	if m.agg.PeekFence() {
		// Pop the fence marker and stall pops until drained.
		m.agg.Pop()
		m.heldFence = true
		m.nextPop = now + m.cfg.ARQ.PopInterval
		return out
	}

	// Bypass entries (B bit, atomics) skip the builder; coalesced
	// entries need a free stage-1 slot.
	if m.agg.Len() > 0 {
		head := m.agg.headEntry()
		single := !head.fence && !head.atomic && len(head.targets) == 1
		if head.atomic || single {
			e, _ := m.agg.Pop()
			e.span.MarkPop(uint64(now))
			e.span.MarkBuilt(uint64(now))
			b := m.direct(e)
			m.note(&b)
			out = append(out, b)
			m.nextPop = now + m.cfg.ARQ.PopInterval
		} else if m.bld.CanAccept(now) {
			e, _ := m.agg.Pop()
			e.span.MarkPop(uint64(now))
			m.bld.Accept(e, now)
			m.nextPop = now + m.cfg.ARQ.PopInterval
		}
	}
	return out
}

// Idle implements memreq.Idler. With the builder empty, Tick only
// samples occupancy while the ARQ is empty, or while a held fence waits
// on transactions in flight.
func (m *MAC) Idle() bool {
	if m.bld.Busy() {
		return false
	}
	if m.heldFence {
		return m.inflight > 0
	}
	return m.agg.Len() == 0
}

// direct builds the transaction for a bypassed or atomic entry: the
// raw request is forwarded alone, sized by its FLIT Span (at least
// BypassSize).
func (m *MAC) direct(e arqEntry) memreq.Built {
	base, n := e.raw.Span()
	return memreq.Built{
		Req: hmc.Request{
			Kind: e.raw.Kind(),
			Addr: base,
			Data: max(n, m.cfg.BypassSize),
		},
		Targets:  e.targets,
		Bypassed: true,
		Span:     e.span,
	}
}

// note updates statistics and the outstanding count for an emitted
// transaction.
func (m *MAC) note(b *memreq.Built) {
	b.Req.Normalize()
	for _, t := range b.Targets {
		if err := t.Validate(m.cfg.ARQ.WindowBytes); err != nil {
			panic(err)
		}
	}
	m.st.CountBuilt(b)
	m.st.TargetsPerTx.Observe(uint64(len(b.Targets)))
	m.inflight++
	if b.Span != nil {
		b.Span.Addr = b.Req.Addr
		b.Span.Bytes = b.Req.Data
		b.Span.Targets = len(b.Targets)
		b.Span.Store = b.Req.Kind == hmc.Write
		b.Span.Bypassed = b.Bypassed
	}
}

// Completed signals that a previously emitted transaction finished.
func (m *MAC) Completed(*memreq.Built) {
	if m.inflight == 0 {
		panic("core: Completed without matching emission")
	}
	m.inflight--
}

// Recycle implements memreq.Recycler: a driver that has fully consumed
// a Built (response delivered, every target retired) hands it back so
// the target slab returns to the ARQ's pool. The Built must not be
// referenced again afterwards.
func (m *MAC) Recycle(b *memreq.Built) { m.agg.pool.Recycle(b) }

// Pending returns raw requests accepted but not yet emitted (ARQ
// occupancy plus builder pipeline contents, counted in entries).
func (m *MAC) Pending() int {
	n := m.agg.Len()
	if m.bld.stage1.valid {
		n++
	}
	if m.bld.stage2.valid {
		n++
	}
	if m.heldFence {
		n++
	}
	return n
}

// Inflight returns emitted transactions not yet completed.
func (m *MAC) Inflight() int { return m.inflight }

// Stats returns the accumulated coalescing statistics.
func (m *MAC) Stats() *memreq.Stats { return m.st }

// Reset restores the unit to its initial state, clearing statistics.
func (m *MAC) Reset() {
	m.agg.Reset()
	if m.cfg.FineBuilder {
		m.bld = NewFineBuilder(m.agg.Window())
	} else {
		m.bld = NewBuilder(m.agg.Window())
	}
	m.nextPop = 0
	m.heldFence = false
	m.inflight = 0
	m.st = memreq.NewStats()
}
