package coalesce

import (
	"fmt"
	"math/bits"

	"mac3d/internal/addr"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// MSHRConfig parameterizes the conventional miss-handling coalescer.
type MSHRConfig struct {
	// Entries is the number of miss status holding registers.
	Entries int
	// LineBytes is the fixed transaction size (the cache-line size;
	// 64B in commercial processors, §2.3.2).
	LineBytes uint32
	// MaxMerges bounds raw requests merged per MSHR entry.
	MaxMerges int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultMSHRConfig returns the §2.3 conventional design: 32 MSHRs of
// 64B lines, mirroring the 32-entry ARQ for a like-for-like area.
func DefaultMSHRConfig() MSHRConfig {
	return MSHRConfig{Entries: 32, LineBytes: 64, MaxMerges: 12, QueueDepth: 64}
}

// Validate reports the first configuration error, or nil.
func (c MSHRConfig) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("coalesce: MSHR Entries must be positive, got %d", c.Entries)
	case c.LineBytes == 0 || c.LineBytes%addr.FlitBytes != 0:
		return fmt.Errorf("coalesce: MSHR LineBytes must be a FLIT multiple, got %d", c.LineBytes)
	case c.MaxMerges <= 0:
		return fmt.Errorf("coalesce: MSHR MaxMerges must be positive, got %d", c.MaxMerges)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: MSHR QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return nil
}

// mshrEntry is one outstanding line miss: the line transaction and the
// targets merged after it dispatched, delivered when it returns.
type mshrEntry struct {
	lineFill
	key  uint64 // line-aligned address with the store bit in bit 63
	slot int    // index in the register file (for bitset bookkeeping)
}

// MSHR models conventional miss-status-holding-register coalescing
// (§2.3): the first request to a line allocates an entry and dispatches
// a line transaction immediately; subsequent requests to the same line
// and type that the dispatched span covers merge into the entry while
// it is outstanding and produce no traffic. The entry frees when the
// line response returns. This is the design whose limitations (§2.3.2)
// motivate MAC: the transaction size is pinned to LineBytes no matter
// how many requests merge (a request spilling past the line end only
// stretches it to cover the spill), and merging stops the moment the
// original miss completes.
//
// The register file is a fixed slab with an occupancy bitset and a
// CAM-style linear key scan — what the hardware's parallel comparators
// do, and in software a bounded allocation-free probe. Per-slot late
// lists are preallocated arenas.
type MSHR struct {
	intake
	cfg MSHRConfig

	// entries is the fixed register file; used is its occupancy
	// bitset (bit i set -> entries[i] holds an outstanding miss).
	entries []mshrEntry
	used    []uint64
	count   int
}

var _ memreq.Coalescer = (*MSHR)(nil)
var _ memreq.Recycler = (*MSHR)(nil)
var _ memreq.Idler = (*MSHR)(nil)

// NewMSHR builds the conventional coalescer, panicking on bad config.
func NewMSHR(cfg MSHRConfig) *MSHR {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &MSHR{
		intake:  newIntake(cfg.QueueDepth, cfg.MaxMerges),
		cfg:     cfg,
		entries: make([]mshrEntry, cfg.Entries),
		used:    make([]uint64, (cfg.Entries+63)/64),
	}
	for i := range m.entries {
		m.entries[i].slot = i
		if cfg.MaxMerges > 1 {
			m.entries[i].late = make([]memreq.Target, 0, cfg.MaxMerges-1)
		}
	}
	return m
}

func (m *MSHR) lineKey(a uint64, store bool) uint64 {
	k := a & addr.PhysMask &^ uint64(m.cfg.LineBytes-1)
	if store {
		k |= 1 << 63
	}
	return k
}

// lookup scans the occupied registers for key — the associative
// comparator bank, as a bitset-guided linear probe.
func (m *MSHR) lookup(key uint64) *mshrEntry {
	for w, word := range m.used {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.entries[i].key == key {
				return &m.entries[i]
			}
		}
	}
	return nil
}

// alloc claims the lowest free register for key. Slot choice is
// invisible to timing (entries are only ever found by key), so
// lowest-free keeps the scan short without affecting results.
func (m *MSHR) alloc(key uint64) *mshrEntry {
	for w, word := range m.used {
		free := ^word
		if w == len(m.used)-1 && m.cfg.Entries%64 != 0 {
			free &= 1<<(m.cfg.Entries%64) - 1
		}
		if free == 0 {
			continue
		}
		i := w*64 + bits.TrailingZeros64(free)
		m.used[w] |= 1 << (i % 64)
		m.count++
		e := &m.entries[i]
		e.key = key
		return e
	}
	return nil
}

// release frees an entry's register.
func (m *MSHR) release(e *mshrEntry) {
	m.used[e.slot/64] &^= 1 << (e.slot % 64)
	m.count--
}

// Tick processes one queued request per cycle: merge into an
// outstanding MSHR (producing no traffic) or allocate an entry and
// dispatch its line transaction immediately.
func (m *MSHR) Tick(now sim.Cycle) []memreq.Built {
	head, ok := m.head()
	if !ok {
		return nil
	}
	if head.Atomic {
		return m.one(m.bypass(head))
	}

	key := m.lineKey(head.Addr, head.Store)
	if e := m.lookup(key); e != nil {
		if e.merge(head, m.cfg.MaxMerges) {
			m.q.Pop() // merged under the outstanding miss: no new traffic
		}
		// Otherwise the entry is full, or its span misses the request:
		// structural stall until the line completes.
		return nil
	}

	if m.count >= m.cfg.Entries {
		return nil // all MSHRs busy: stall
	}

	m.q.Pop()
	e := m.alloc(key)
	b := m.send(&e.lineFill, head, head.Kind(), m.cfg.LineBytes)
	b.Handle = e
	m.emit(&b)
	return m.one(b)
}

// Idle implements memreq.Idler, mirroring Tick's stalls: the queue is
// idle, or its head waits on a register it cannot merge into, or on a
// full register file.
func (m *MSHR) Idle() bool {
	if m.idle() {
		return true
	}
	head, ok := m.front()
	if !ok || head.Atomic {
		return false
	}
	if e := m.lookup(m.lineKey(head.Addr, head.Store)); e != nil {
		return !e.fits(head, m.cfg.MaxMerges)
	}
	return m.count >= m.cfg.Entries
}

// Completed frees the MSHR entry of the finished transaction and folds
// any targets merged after dispatch into the transaction's target list
// so the caller's response routing delivers them too.
func (m *MSHR) Completed(b *memreq.Built) {
	m.complete()
	if e, ok := b.Handle.(*mshrEntry); ok {
		e.land(b)
		m.release(e)
	}
	m.st.TargetsPerTx.Observe(uint64(len(b.Targets)))
}

// Reset restores the initial empty state (the target pool survives).
func (m *MSHR) Reset() {
	m.reset()
	clear(m.used)
	m.count = 0
}

// AttachObs registers the MSHR's occupancy and queue state into a
// run's observability layer.
func (m *MSHR) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("mshr.entries", func() float64 { return float64(m.count) })
	reg.Func("mshr.queue", func() float64 { return float64(m.q.Len()) })
	rec := o.Rec()
	rec.Watch("mshr.entries", func() float64 { return float64(m.count) })
	rec.Watch("mshr.queue", func() float64 { return float64(m.q.Len()) })
}

var _ obs.Attacher = (*MSHR)(nil)
