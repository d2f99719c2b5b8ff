// Package coalesce provides the baseline memory-path designs that the
// paper compares MAC against:
//
//   - Null: the "without MAC" path — every raw request becomes its own
//     FLIT-granularity HMC transaction, the configuration all of the
//     paper's with/without comparisons (Figs. 10, 12, 13, 14, 17) use;
//   - MSHR: the conventional miss-status-holding-register coalescer of
//     §2.3 — fixed 64B cache-line transactions dispatched immediately
//     on first miss, with subsequent same-line requests merged while
//     the original is outstanding. It illustrates the limitation
//     argued in §2.3.2: fixed-size, dispatch-on-allocate coalescing
//     cannot exploit the HMC's large flexible packets;
//   - Warp and MemCache: the SIMT warp-lane and die-stacked
//     part-memory/part-cache designs of the frontend arena.
//
// All four embed one intake (the input FIFO, fence hold, in-flight
// count, statistics and target pool) and implement memreq.Coalescer, so
// the node model and the experiment harness can swap them freely with
// the real MAC.
package coalesce

import (
	"fmt"

	"mac3d/internal/memreq"
	"mac3d/internal/sim"
)

// NullConfig parameterizes the raw request path.
type NullConfig struct {
	// QueueDepth sizes the dispatch FIFO decoupling cores from the
	// memory interface.
	QueueDepth int
	// IssuePerCycle bounds transactions dispatched per cycle. The
	// paper's no-MAC interface issues one request per cycle (the
	// same rate at which the ARQ accepts raw requests).
	IssuePerCycle int
}

// DefaultNullConfig returns the paper's no-MAC configuration.
func DefaultNullConfig() NullConfig {
	return NullConfig{QueueDepth: 64, IssuePerCycle: 1}
}

// Null is the identity "coalescer": every raw request passes through
// as its own transaction, sized by its FLIT Span.
type Null struct {
	intake
	cfg NullConfig
}

var (
	_ memreq.Coalescer = (*Null)(nil)
	_ memreq.Recycler  = (*Null)(nil)
	_ memreq.Idler     = (*Null)(nil)
)

// NewNull builds the pass-through path.
func NewNull(cfg NullConfig) *Null {
	if cfg.QueueDepth <= 0 {
		panic(fmt.Sprintf("coalesce: QueueDepth must be positive, got %d", cfg.QueueDepth))
	}
	if cfg.IssuePerCycle <= 0 {
		cfg.IssuePerCycle = 1
	}
	return &Null{intake: newIntake(cfg.QueueDepth, 1), cfg: cfg}
}

// Tick dispatches up to IssuePerCycle queued requests as transactions.
func (n *Null) Tick(now sim.Cycle) []memreq.Built {
	out := n.out[:0]
	for len(out) < n.cfg.IssuePerCycle {
		r, ok := n.head()
		if !ok {
			if n.heldFence && n.inflight == 0 {
				continue // a fence with nothing in flight releases at once
			}
			break
		}
		n.q.Pop()
		b := n.alone(r)
		n.emit(&b)
		n.st.TargetsPerTx.Observe(1)
		out = append(out, b)
	}
	n.out = out
	return out
}

// Idle implements memreq.Idler: Tick dispatches nothing while the
// queue is idle.
func (n *Null) Idle() bool { return n.idle() }

// Completed signals the completion of one emitted transaction.
func (n *Null) Completed(*memreq.Built) { n.complete() }

// Reset restores the initial empty state.
func (n *Null) Reset() { n.reset() }
