package coalesce

import (
	"fmt"

	"mac3d/internal/addr"
	"mac3d/internal/cache"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/sim"
)

// MemCacheConfig parameterizes the die-stacked memory+cache frontend.
type MemCacheConfig struct {
	// DirectFraction is the share of DRAM rows served as plain
	// directly addressed stacked memory, in [0, 1]. The remaining rows
	// route through the stacked cache. Rows are assigned to the two
	// partitions by a deterministic hash of the row number, so the
	// split holds for any footprint.
	DirectFraction float64
	// CacheBytes, LineBytes and Ways give the stacked cache geometry
	// (see internal/cache).
	CacheBytes uint64
	LineBytes  uint32
	Ways       int
	// MaxFills bounds outstanding line fills; a full fill table stalls
	// further cache-region misses.
	MaxFills int
	// MaxMerges bounds raw requests riding one line fill (the initial
	// miss plus hit-under-miss merges).
	MaxMerges int
	// QueueDepth sizes the input FIFO.
	QueueDepth int
}

// DefaultMemCacheConfig returns a half-memory/half-cache split with a
// 128KB 8-way stacked cache of 64B lines — small enough that the
// benchmark footprints exercise both fills and dirty writebacks.
func DefaultMemCacheConfig() MemCacheConfig {
	return MemCacheConfig{
		DirectFraction: 0.5,
		CacheBytes:     128 << 10,
		LineBytes:      64,
		Ways:           8,
		MaxFills:       16,
		MaxMerges:      12,
		QueueDepth:     64,
	}
}

// Validate reports the first configuration error, or nil.
func (c MemCacheConfig) Validate() error {
	switch {
	case c.DirectFraction < 0 || c.DirectFraction > 1:
		return fmt.Errorf("coalesce: MemCache DirectFraction must be in [0, 1], got %g", c.DirectFraction)
	case c.LineBytes < addr.FlitBytes:
		return fmt.Errorf("coalesce: MemCache LineBytes must be at least one FLIT (%d), got %d", addr.FlitBytes, c.LineBytes)
	case c.MaxFills <= 0 || c.MaxFills > 4096:
		return fmt.Errorf("coalesce: MemCache MaxFills must be in [1, 4096], got %d", c.MaxFills)
	case c.MaxMerges <= 0:
		return fmt.Errorf("coalesce: MemCache MaxMerges must be positive, got %d", c.MaxMerges)
	case c.QueueDepth <= 0:
		return fmt.Errorf("coalesce: MemCache QueueDepth must be positive, got %d", c.QueueDepth)
	}
	return cache.Config{SizeBytes: c.CacheBytes, LineBytes: c.LineBytes, Ways: c.Ways}.Validate()
}

// MemCache models the die-stacked "part memory, part cache" design of
// Bakhshalipour et al.: a deterministic hash of the DRAM row number
// splits the stacked capacity into a directly addressed partition
// (requests pass through like the raw path) and a cached partition
// backed by an inclusive set-associative store (internal/cache). A
// cache hit is served by one short stacked access; a miss allocates the
// line and emits LineBytes of fill traffic that later same-line
// requests merge onto (hit-under-miss); evicting a dirty line emits a
// zero-target writeback transaction.
//
// Against MAC this models spending stacked capacity instead of
// request-stream smarts: temporal reuse is captured by the tags, but
// there is no spatial aggregation beyond the line, and cold or
// streaming workloads pay full fill traffic.
type MemCache struct {
	intake
	cfg   MemCacheConfig
	cache *cache.Cache

	// threshold is DirectFraction scaled to 32 bits: a row is direct
	// when the top half of its hashed number falls below it.
	threshold uint64

	// fills holds the line fills in flight, at most MaxFills and one
	// per line; freeFill pools retired fills. A slice scan rather than a
	// map keeps the churn of fills from ever allocating.
	fills    []*lineFill
	freeFill []*lineFill
}

var _ memreq.Coalescer = (*MemCache)(nil)
var _ memreq.Recycler = (*MemCache)(nil)
var _ memreq.Idler = (*MemCache)(nil)
var _ obs.Attacher = (*MemCache)(nil)

// NewMemCache builds the die-stacked frontend, returning an error on
// bad config.
func NewMemCache(cfg MemCacheConfig) (*MemCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tags, err := cache.New(cache.Config{
		SizeBytes: cfg.CacheBytes, LineBytes: cfg.LineBytes, Ways: cfg.Ways,
	})
	if err != nil {
		return nil, err
	}
	mc := &MemCache{
		intake:    newIntake(cfg.QueueDepth, cfg.MaxMerges),
		cfg:       cfg,
		cache:     tags,
		threshold: uint64(cfg.DirectFraction * float64(1<<32)),
		fills:     make([]*lineFill, 0, cfg.MaxFills),
	}
	mc.st.MemCache = &memreq.MemCacheStats{}
	return mc, nil
}

// mix64 is the splitmix64 finalizer — the partition hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// direct reports whether address a falls in the directly addressed
// partition.
func (mc *MemCache) direct(a uint64) bool {
	return mix64(addr.RowNumber(a))>>32 < mc.threshold
}

// fill returns the fill in flight for the line holding physical
// address a, or nil.
func (mc *MemCache) fill(a uint64) *lineFill {
	line := a &^ uint64(mc.cfg.LineBytes-1)
	for _, fe := range mc.fills {
		if fe.addr == line {
			return fe
		}
	}
	return nil
}

// takeFill returns a pooled (or fresh) line fill.
func (mc *MemCache) takeFill() *lineFill {
	if n := len(mc.freeFill); n > 0 {
		fe := mc.freeFill[n-1]
		mc.freeFill = mc.freeFill[:n-1]
		return fe
	}
	fe := &lineFill{}
	if mc.cfg.MaxMerges > 1 {
		fe.late = make([]memreq.Target, 0, mc.cfg.MaxMerges-1)
	}
	return fe
}

// Tick processes one queued request per cycle: route it to the direct
// partition, serve it from the stacked cache, merge it onto an
// in-flight fill, or allocate a fill (plus a writeback when the victim
// line is dirty).
func (mc *MemCache) Tick(now sim.Cycle) []memreq.Built {
	head, ok := mc.head()
	if !ok {
		return nil
	}
	if head.Atomic {
		return mc.one(mc.bypass(head))
	}

	if mc.direct(head.Addr) {
		mc.q.Pop()
		b := mc.alone(head)
		mc.st.MemCache.DirectAccesses++
		mc.emit(&b)
		return mc.one(b)
	}

	probe := head.Addr & addr.PhysMask
	if fe := mc.fill(probe); fe != nil {
		if fe.merge(head, mc.cfg.MaxMerges) {
			// Hit under miss: ride the in-flight fill, no new traffic.
			mc.q.Pop()
			if head.Store {
				mc.cache.MarkDirty(probe)
			}
			mc.st.MemCache.MergedMisses++
		}
		// Otherwise the merge budget or the sent span is exhausted:
		// structural stall until the fill completes, after which the
		// line hits in the tags.
		return nil
	}

	if len(mc.fills) >= mc.cfg.MaxFills && !mc.cache.Contains(probe) {
		return nil // fill table full: stall
	}

	mc.q.Pop()
	hit, evicted, evictedDirty := mc.cache.AccessDirty(probe, head.Store)
	if hit {
		// Served by the stacked cache: one short stacked access.
		b := mc.alone(head)
		mc.st.MemCache.Hits++
		mc.emit(&b)
		return mc.one(b)
	}

	// Miss: fetch the whole line (write-allocate).
	mc.st.MemCache.Misses++
	fe := mc.takeFill()
	b := mc.send(fe, head, hmc.Read, mc.cfg.LineBytes)
	b.Handle = fe
	mc.fills = append(mc.fills, fe)
	mc.emit(&b)
	out := mc.one(b)

	if evictedDirty {
		// The victim line held stores: write it back. The transaction
		// retires no raw request (zero targets).
		mc.st.MemCache.Writebacks++
		wb := memreq.Built{
			Req: hmc.Request{Kind: hmc.Write, Addr: evicted, Data: mc.cfg.LineBytes},
		}
		mc.emit(&wb)
		out = append(out, wb)
		mc.out = out
	}
	return out
}

// Idle implements memreq.Idler, mirroring Tick's stalls: the queue is
// idle, or its head waits on a fill it cannot merge onto, or on a full
// fill table.
func (mc *MemCache) Idle() bool {
	if mc.idle() {
		return true
	}
	head, ok := mc.front()
	if !ok || head.Atomic || mc.direct(head.Addr) {
		return false
	}
	probe := head.Addr & addr.PhysMask
	if fe := mc.fill(probe); fe != nil {
		return !fe.fits(head, mc.cfg.MaxMerges)
	}
	return len(mc.fills) >= mc.cfg.MaxFills && !mc.cache.Contains(probe)
}

// Completed frees the fill entry of a finished line fetch and folds any
// targets merged after dispatch into the transaction's target list so
// the caller's response routing delivers them too.
func (mc *MemCache) Completed(b *memreq.Built) {
	mc.complete()
	if fe, ok := b.Handle.(*lineFill); ok {
		fe.land(b)
		for i, f := range mc.fills {
			if f == fe {
				last := len(mc.fills) - 1
				mc.fills[i] = mc.fills[last]
				mc.fills = mc.fills[:last]
				break
			}
		}
		mc.freeFill = append(mc.freeFill, fe)
	}
	mc.st.TargetsPerTx.Observe(uint64(len(b.Targets)))
}

// CacheStats returns the stacked tag array's counters.
func (mc *MemCache) CacheStats() cache.Stats { return mc.cache.Stats() }

// Reset restores the initial empty state (the pools survive).
func (mc *MemCache) Reset() {
	mc.reset()
	mc.cache.Reset()
	mc.freeFill = append(mc.freeFill, mc.fills...)
	mc.fills = mc.fills[:0]
	mc.st.MemCache = &memreq.MemCacheStats{}
}

// AttachObs registers the frontend's fill-table and queue state into a
// run's observability layer.
func (mc *MemCache) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("memcache.fills", func() float64 { return float64(len(mc.fills)) })
	reg.Func("memcache.queue", func() float64 { return float64(mc.q.Len()) })
	rec := o.Rec()
	rec.Watch("memcache.fills", func() float64 { return float64(len(mc.fills)) })
	rec.Watch("memcache.queue", func() float64 { return float64(mc.q.Len()) })
}
