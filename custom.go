package mac3d

import (
	"fmt"
	"io"

	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// TraceBuilder lets applications drive the simulator with their own
// memory-access streams instead of the built-in benchmarks: allocate
// simulated arrays, record loads/stores/fences per thread, then hand
// the builder to RunTrace or CompareTrace.
//
// The builder mirrors the instrumentation surface used by the twelve
// built-in kernels, so custom workloads are measured identically.
type TraceBuilder struct {
	ctx *workloads.Context
}

// NewTraceBuilder returns a builder for the given thread count. Seed
// feeds the deterministic allocator layout; it does not need to match
// the RunOptions seed.
func NewTraceBuilder(threads int, seed uint64) (*TraceBuilder, error) {
	cfg := workloads.Config{Threads: threads, Seed: seed, Scale: workloads.Tiny}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TraceBuilder{ctx: workloads.NewContext(cfg)}, nil
}

// Threads returns the builder's hardware thread count.
func (b *TraceBuilder) Threads() int { return b.ctx.Threads() }

// Alloc reserves n bytes of simulated global (HMC-resident) memory and
// returns its base address. Alignment is 64B.
func (b *TraceBuilder) Alloc(n uint64) uint64 { return b.ctx.Alloc(n, 64) }

// AllocSPM reserves n bytes in thread tid's 1MB scratchpad window.
// Accesses there retire locally and never reach the coalescer.
func (b *TraceBuilder) AllocSPM(tid int, n uint64) uint64 { return b.ctx.AllocSPM(tid, n) }

// Load records a read of size bytes at address a by thread tid.
func (b *TraceBuilder) Load(tid int, a uint64, size int) error {
	return b.emit(tid, a, size, b.ctx.Load)
}

// Store records a write of size bytes at address a by thread tid.
func (b *TraceBuilder) Store(tid int, a uint64, size int) error {
	return b.emit(tid, a, size, b.ctx.Store)
}

// Atomic records a read-modify-write at address a by thread tid.
// Atomics are never coalesced.
func (b *TraceBuilder) Atomic(tid int, a uint64, size int) error {
	return b.emit(tid, a, size, b.ctx.Atomic)
}

func (b *TraceBuilder) emit(tid int, a uint64, size int, f func(int, uint64, uint8)) error {
	if tid < 0 || tid >= b.ctx.Threads() {
		return fmt.Errorf("mac3d: thread %d out of range [0,%d)", tid, b.ctx.Threads())
	}
	if size <= 0 || size > 16 {
		return fmt.Errorf("mac3d: access size %d outside 1..16 bytes", size)
	}
	f(tid, a, uint8(size))
	return nil
}

// Fence records a memory fence by thread tid: the coalescer stops
// merging until every earlier request of the node has completed.
func (b *TraceBuilder) Fence(tid int) error {
	if tid < 0 || tid >= b.ctx.Threads() {
		return fmt.Errorf("mac3d: thread %d out of range [0,%d)", tid, b.ctx.Threads())
	}
	b.ctx.Fence(tid)
	return nil
}

// Work records n non-memory instructions by thread tid, pacing its
// issue rate in the timed model.
func (b *TraceBuilder) Work(tid int, n int) {
	if tid >= 0 && tid < b.ctx.Threads() {
		b.ctx.Work(tid, n)
	}
}

// Events returns the number of recorded trace events.
func (b *TraceBuilder) Events() int { return b.ctx.Trace().Len() }

// RunTrace executes a custom trace under the selected design. The
// Workload and Scale fields of opts are ignored; Threads must be able
// to hold the builder's threads (it defaults to the builder's count).
func RunTrace(opts RunOptions, b *TraceBuilder) (*RunReport, error) {
	src, err := b.source()
	if err != nil {
		return nil, err
	}
	return run(opts, src)
}

// CompareTrace executes a custom trace with and without the MAC.
func CompareTrace(opts RunOptions, b *TraceBuilder) (*CompareReport, error) {
	src, err := b.source()
	if err != nil {
		return nil, err
	}
	return compare(opts, src)
}

func (b *TraceBuilder) source() (source, error) {
	if b == nil {
		return source{}, fmt.Errorf("mac3d: nil TraceBuilder")
	}
	return source{tr: b.ctx.Trace(), label: "custom", threads: b.Threads()}, nil
}

// RunTraceFile replays a binary trace file (written by cmd/tracegen or
// trace.Writer) through the simulator.
func RunTraceFile(opts RunOptions, r io.Reader) (*RunReport, error) {
	src, err := readSource(r)
	if err != nil {
		return nil, err
	}
	return run(opts, src)
}

// CompareTraceFile replays a binary trace file with and without MAC.
func CompareTraceFile(opts RunOptions, r io.Reader) (*CompareReport, error) {
	src, err := readSource(r)
	if err != nil {
		return nil, err
	}
	return compare(opts, src)
}

// readSource reads a binary trace; it needs one thread per non-empty
// thread stream.
func readSource(r io.Reader) (source, error) {
	tr, err := trace.NewReader(r).ReadTrace()
	if err != nil {
		return source{}, err
	}
	active := 0
	for _, th := range tr.Threads {
		if len(th) > 0 {
			active++
		}
	}
	return source{tr: tr, label: "tracefile", threads: active}, nil
}
