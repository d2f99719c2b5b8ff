// Package trace models the memory instruction stream that drives the
// coalescer, replacing the paper's RISC-V Spike memory tracer.
//
// Every event carries the information the paper's tracer attaches to a
// memory instruction: the operation, the physical address and access
// size, the originating thread and core (the "target information" used
// by the response router), and the number of non-memory instructions
// the thread executed since its previous memory operation (used for the
// IPC/RPI accounting behind Figure 9).
package trace

import "fmt"

// Op is the kind of a memory instruction.
type Op uint8

const (
	// Load is a memory read.
	Load Op = iota
	// Store is a memory write.
	Store
	// Fence is a memory fence: the aggregator stops coalescing until
	// every earlier request has drained (paper §4.1).
	Fence
	// Atomic is an atomic read-modify-write; MAC never coalesces
	// atomics and routes them directly to the device (paper §4.1.2).
	Atomic
	numOps
)

// String returns the mnemonic for the op.
func (o Op) String() string {
	switch o {
	case Load:
		return "LD"
	case Store:
		return "ST"
	case Fence:
		return "FENCE"
	case Atomic:
		return "AMO"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// IsMemory reports whether the op references memory (fences do not).
func (o Op) IsMemory() bool { return o == Load || o == Store || o == Atomic }

// Event is one traced instruction of one hardware thread.
type Event struct {
	// Addr is the physical address (52 architectural bits used).
	Addr uint64
	// Thread identifies the issuing hardware thread (paper: 2B TID).
	Thread uint16
	// Core is the core the thread is pinned to.
	Core uint8
	// Op is the instruction kind.
	Op Op
	// Size is the access size in bytes (1–16 for scalar RISC-V
	// accesses; 0 is normalized to 1). Fences carry size 0.
	Size uint8
	// Gap is the number of non-memory instructions executed by the
	// thread since its previous traced event, saturating at 255.
	Gap uint8
}

// Trace is an in-memory per-thread ordered event stream.
type Trace struct {
	// Threads holds one ordered event slice per hardware thread.
	Threads [][]Event
}

// NewTrace returns a trace with capacity for n threads.
func NewTrace(n int) *Trace {
	return &Trace{Threads: make([][]Event, n)}
}

// NumThreads returns the number of thread streams.
func (t *Trace) NumThreads() int { return len(t.Threads) }

// Append adds an event to its thread's stream, growing the thread table
// if needed. A full stream doubles: append's gentler growth for large
// slices copies about five times the final bytes.
func (t *Trace) Append(e Event) {
	for int(e.Thread) >= len(t.Threads) {
		t.Threads = append(t.Threads, nil)
	}
	th := t.Threads[e.Thread]
	if len(th) == cap(th) {
		grown := make([]Event, len(th), max(2*cap(th), 256))
		copy(grown, th)
		th = grown
	}
	t.Threads[e.Thread] = append(th, e)
}

// Len returns the total number of events across all threads.
func (t *Trace) Len() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// Stats summarizes a trace for reporting and for the Figure 9 request
// rate model (Eq. 2: RPC = IPC × RPI × cores × mem_access_rate).
type Stats struct {
	Events       int     // total traced events
	Loads        int     // Load events
	Stores       int     // Store events
	Fences       int     // Fence events
	Atomics      int     // Atomic events
	Instructions uint64  // memory instructions + accumulated gaps
	MemRefs      int     // Loads+Stores+Atomics
	RPI          float64 // memory requests per instruction
	UniqueRows   int     // distinct 256B rows touched
	Footprint    uint64  // bytes spanned by [minAddr, maxAddr]
}

// ComputeStats scans the trace once and returns its summary.
func ComputeStats(t *Trace) Stats {
	var s Stats
	rows := make(map[uint64]struct{})
	var minA, maxA uint64
	first := true
	for _, th := range t.Threads {
		for _, e := range th {
			s.Events++
			s.Instructions += uint64(e.Gap)
			switch e.Op {
			case Load:
				s.Loads++
			case Store:
				s.Stores++
			case Fence:
				s.Fences++
			case Atomic:
				s.Atomics++
			}
			if e.Op.IsMemory() {
				s.Instructions++ // the memory instruction itself
				s.MemRefs++
				rows[e.Addr>>8] = struct{}{}
				if first || e.Addr < minA {
					minA = e.Addr
				}
				if first || e.Addr > maxA {
					maxA = e.Addr
				}
				first = false
			}
		}
	}
	s.UniqueRows = len(rows)
	if s.Instructions > 0 {
		s.RPI = float64(s.MemRefs) / float64(s.Instructions)
	}
	if !first {
		s.Footprint = maxA - minA + 1
	}
	return s
}
