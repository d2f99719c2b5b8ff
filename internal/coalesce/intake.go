package coalesce

import (
	"mac3d/internal/addr"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// intake is the skeleton every frontend in this package embeds: the
// input FIFO Push fills, the fence held until earlier transactions
// drain, the in-flight count, the statistics, the target pool and
// Tick's result slice. Push, Inflight, Stats and Recycle come from
// here; Pending too, for the frontends that hold nothing beyond the
// queue.
type intake struct {
	q         *queue.FIFO[memreq.RawRequest]
	heldFence bool
	inflight  int
	st        *memreq.Stats
	pool      memreq.TargetPool
	// out is Tick's result slice, reused from call to call.
	out []memreq.Built
}

// newIntake returns an intake of depth queued requests whose target
// slices hold targets entries.
func newIntake(depth, targets int) intake {
	return intake{
		q:    queue.New[memreq.RawRequest](depth),
		st:   memreq.NewStats(),
		pool: memreq.TargetPool{Cap: targets},
	}
}

// Push offers one raw request; it reports acceptance.
func (in *intake) Push(r memreq.RawRequest, _ sim.Cycle) bool {
	if !in.q.Push(r) {
		in.st.PushRejects++
		return false
	}
	in.st.CountPush(r)
	return true
}

// head returns the request at the front of the queue, without popping
// it, once any held fence has drained. A fence reaching the front is
// popped and held instead, and head reports nothing.
func (in *intake) head() (memreq.RawRequest, bool) {
	if in.heldFence {
		if in.inflight != 0 {
			return memreq.RawRequest{}, false
		}
		in.heldFence = false
	}
	r, ok := in.q.Peek()
	if !ok || !r.Fence {
		return r, ok
	}
	in.q.Pop()
	in.heldFence = true
	return memreq.RawRequest{}, false
}

// idle reports that head would report nothing and change nothing: the
// queue is empty, or a held fence waits on transactions in flight.
func (in *intake) idle() bool {
	if in.heldFence {
		return in.inflight != 0
	}
	return in.q.Empty()
}

// front returns the request head would return, when head would return
// one without releasing or popping a fence.
func (in *intake) front() (memreq.RawRequest, bool) {
	if in.heldFence {
		return memreq.RawRequest{}, false
	}
	r, ok := in.q.Peek()
	return r, ok && !r.Fence
}

// one returns b alone as Tick's result, in the reused slice.
func (in *intake) one(b memreq.Built) []memreq.Built {
	in.out = append(in.out[:0], b)
	return in.out
}

// target is r's response-routing entry.
func target(r memreq.RawRequest) memreq.Target {
	return memreq.Target{Thread: r.Thread, Tag: r.Tag, Flit: addr.FlitID(r.Addr)}
}

// alone builds the transaction that serves r by itself: r's Span, r's
// kind, one target.
func (in *intake) alone(r memreq.RawRequest) memreq.Built {
	base, n := r.Span()
	return memreq.Built{
		Req:     hmc.Request{Kind: r.Kind(), Addr: base, Data: n},
		Targets: append(in.pool.Take(), target(r)),
	}
}

// bypass pops the atomic at the head and emits it alone: atomics are
// never coalesced (paper §4.1.2).
func (in *intake) bypass(r memreq.RawRequest) memreq.Built {
	in.q.Pop()
	b := in.alone(r)
	b.Bypassed = true
	in.emit(&b)
	return b
}

// emit counts one transaction leaving the frontend.
func (in *intake) emit(b *memreq.Built) {
	b.Req.Normalize()
	in.st.CountBuilt(b)
	in.inflight++
}

// complete retires one emitted transaction from the in-flight count.
func (in *intake) complete() {
	if in.inflight == 0 {
		panic("coalesce: Completed without matching emission")
	}
	in.inflight--
}

// Pending returns the queued raw requests, plus a held fence.
func (in *intake) Pending() int {
	p := in.q.Len()
	if in.heldFence {
		p++
	}
	return p
}

// Recycle implements memreq.Recycler: a fully consumed Built hands its
// target slice back to the pool.
func (in *intake) Recycle(b *memreq.Built) { in.pool.Recycle(b) }

// Inflight returns emitted transactions not yet completed.
func (in *intake) Inflight() int { return in.inflight }

// Stats returns the accumulated statistics.
func (in *intake) Stats() *memreq.Stats { return in.st }

// reset empties the queue and starts fresh statistics; the target pool
// survives.
func (in *intake) reset() {
	in.q.Reset()
	in.heldFence = false
	in.inflight = 0
	in.st = memreq.NewStats()
}

// lineFill is a line transaction in flight that later requests to the
// same line may ride (MSHR merges, MemCache hit-under-miss): the span
// it was sent with and the targets merged after it left.
type lineFill struct {
	addr  uint64
	bytes uint32
	late  []memreq.Target
}

// send sizes f for r and returns its transaction: r's line of
// lineBytes, extended past the line end when r spills over it so that
// r's whole Span is covered. The caller sets the handle and emits it.
func (in *intake) send(f *lineFill, r memreq.RawRequest, kind hmc.Kind, lineBytes uint32) memreq.Built {
	base, n := r.Span()
	f.addr = r.Addr & addr.PhysMask &^ uint64(lineBytes-1)
	f.bytes = lineBytes
	if end := uint32(base&addr.PhysMask + uint64(n) - f.addr); end > f.bytes {
		f.bytes = end
	}
	f.late = f.late[:0]
	return memreq.Built{
		Req:     hmc.Request{Kind: kind, Addr: f.addr, Data: f.bytes},
		Targets: append(in.pool.Take(), target(r)),
	}
}

// fits reports whether r may merge into f: the span f was sent with
// covers r's Span and f carries fewer than maxMerges targets.
func (f *lineFill) fits(r memreq.RawRequest, maxMerges int) bool {
	base, n := r.Span()
	base &= addr.PhysMask
	return 1+len(f.late) < maxMerges && base >= f.addr && base+uint64(n) <= f.addr+uint64(f.bytes)
}

// merge adds r to f when it fits. It reports whether r merged.
func (f *lineFill) merge(r memreq.RawRequest, maxMerges int) bool {
	if !f.fits(r, maxMerges) {
		return false
	}
	f.late = append(f.late, target(r))
	return true
}

// land appends the targets merged after dispatch to b, the completed
// transaction f was sent as, so the node's response routing delivers
// them too. A pooled slice has room for all of them: dispatch plus late
// is at most maxMerges.
func (f *lineFill) land(b *memreq.Built) {
	b.Targets = append(b.Targets, f.late...)
}
