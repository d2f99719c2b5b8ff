package noc

import (
	"mac3d/internal/obs"
	"mac3d/internal/queue"
	"mac3d/internal/sim"
)

// idealFabric is the contention-free crossbar: every accepted message
// is delivered exactly LinkLatency cycles after its Send, in the order
// a deliver-time min-heap pops them. It reproduces the pre-NoC NUMA
// interconnect bit-for-bit — same heap discipline, same tie behaviour
// — which is what keeps old results reproducible under the `ideal`
// topology (there is a golden test holding it to that).
//
// The one deliberate divergence is the refused-delivery path: where
// the old model re-queued a refused message one cycle out (letting
// younger same-source messages due earlier pop past it), the crossbar
// parks refusals in arrival order and holds back every younger
// message from a parked source, preserving per-source FIFO.
type idealFabric[P any] struct {
	cfg Config
	// h orders messages by delivery cycle only — the exact discipline
	// (including tie order) of the pre-NoC model's container/heap.
	h *queue.Heap[idealMsg[P]]
	// parked holds refused deliveries in arrival order; blockedSrc is
	// the per-cycle scratch marking sources with a parked message.
	parked     []idealMsg[P]
	blockedSrc []bool
	st         Stats
	inflight   int
}

// idealMsg is one in-flight crossbar transfer.
type idealMsg[P any] struct {
	deliver sim.Cycle
	sent    sim.Cycle
	m       Message[P]
}

func newIdeal[P any](cfg Config) *idealFabric[P] {
	return &idealFabric[P]{
		cfg:        cfg,
		h:          queue.NewHeap(func(a, b idealMsg[P]) bool { return a.deliver < b.deliver }),
		blockedSrc: make([]bool, cfg.Nodes),
		st:         Stats{Topology: cfg.Topology},
	}
}

func (f *idealFabric[P]) Send(now sim.Cycle, m Message[P]) bool {
	if m.Flits <= 0 {
		m.Flits = 1
	}
	f.h.Push(idealMsg[P]{deliver: now + f.cfg.LinkLatency, sent: now, m: m})
	f.inflight++
	f.st.Sent++
	f.st.FlitsSent += uint64(m.Flits)
	return true
}

func (f *idealFabric[P]) Tick(sim.Cycle) {}

func (f *idealFabric[P]) Deliver(now sim.Cycle, sink func(m Message[P]) bool) {
	for i := range f.blockedSrc {
		f.blockedSrc[i] = false
	}
	// Parked refusals first, in arrival order: a source stays blocked
	// until its oldest message lands.
	if len(f.parked) > 0 {
		keep := f.parked[:0]
		for _, p := range f.parked {
			if f.blockedSrc[p.m.Src] || !sink(p.m) {
				f.blockedSrc[p.m.Src] = true
				f.st.DeliverRetries++
				keep = append(keep, p)
				continue
			}
			f.retired(now, p)
		}
		f.parked = keep
	}
	for f.h.Len() > 0 && f.h.Min().deliver <= now {
		p := f.h.Pop()
		if f.blockedSrc[p.m.Src] || !sink(p.m) {
			f.blockedSrc[p.m.Src] = true
			f.st.DeliverRetries++
			f.parked = append(f.parked, p)
			continue
		}
		f.retired(now, p)
	}
}

func (f *idealFabric[P]) retired(now sim.Cycle, p idealMsg[P]) {
	f.inflight--
	f.st.Delivered++
	hops := 1
	if p.m.Src == p.m.Dst {
		hops = 0
	}
	f.st.Hops.Observe(uint64(hops))
	f.st.NetLatency.Observe(uint64(now - p.sent))
}

func (f *idealFabric[P]) InFlight() int            { return f.inflight }
func (f *idealFabric[P]) Links() int               { return 0 }
func (f *idealFabric[P]) StallLink(int, sim.Cycle) {}
func (f *idealFabric[P]) Stats() *Stats            { return &f.st }
func (f *idealFabric[P]) AttachObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	attachStats(o, &f.st, f.InFlight)
}
