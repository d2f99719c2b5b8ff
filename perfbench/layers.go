package main

import (
	"fmt"
	"io"
	"time"

	"mac3d"
	"mac3d/internal/addr"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
)

// injectSpin is the fixed delay, in spin iterations per call, that the
// injected-slowdown self-check adds to one layer's shim.
const injectSpin = 2000

type callKind uint8

const (
	callPush callKind = iota // n is 1 when the request differs from the previous push's
	callPushRejected
	callTick      // n transactions built
	callIdleTicks // n Tick calls on consecutive cycles that built nothing
	callCompleted // n is the completed transaction's build index
	callRecycled  // n is the recycled transaction's build index
)

// call is one logged coalescer call.
type call struct {
	cycle sim.Cycle
	n     uint32
	kind  callKind
}

// capture is the stream a shim logged at the node→coalescer boundary,
// and the transactions the coalescer handed to the device.
type capture struct {
	calls []call
	reqs  []memreq.RawRequest // pushed requests, each run of retries of one request stored once
	tx    []hmc.Request       // in build order; build index i has device tag i+1
	txAt  []sim.Cycle
	now   sim.Cycle // cycle of the latest Push or Tick
}

// shim wraps the coalescer the node drives: it logs every call with its
// cycle and forwards it. Because it hides the concrete *core.MAC from
// the node, a traced MAC run reports an ARQ occupancy of 0.
type shim struct {
	inner memreq.Coalescer
	log   *capture
	delay int
}

func (s *shim) Push(r memreq.RawRequest, now sim.Cycle) bool {
	if s.delay > 0 {
		spin(s.delay)
	}
	ok := s.inner.Push(r, now)
	kind := callPushRejected
	if ok {
		kind = callPush
	}
	l := s.log
	l.now = now
	c := call{cycle: now, kind: kind}
	if len(l.reqs) == 0 || l.reqs[len(l.reqs)-1] != r {
		l.reqs = append(l.reqs, r)
		c.n = 1
	}
	l.calls = append(l.calls, c)
	return ok
}

func (s *shim) Tick(now sim.Cycle) []memreq.Built {
	if s.delay > 0 {
		spin(s.delay)
	}
	out := s.inner.Tick(now)
	l := s.log
	l.now = now
	if len(out) == 0 {
		if n := len(l.calls); n > 0 && l.calls[n-1].kind == callIdleTicks &&
			l.calls[n-1].cycle+sim.Cycle(l.calls[n-1].n) == now {
			l.calls[n-1].n++
		} else {
			l.calls = append(l.calls, call{cycle: now, n: 1, kind: callIdleTicks})
		}
		return out
	}
	l.calls = append(l.calls, call{cycle: now, n: uint32(len(out)), kind: callTick})
	for _, b := range out {
		l.tx = append(l.tx, b.Req)
		l.txAt = append(l.txAt, now)
	}
	return out
}

// Completed identifies the transaction by the device tag the node's
// response router assigned: tags count up from 1 in build order.
func (s *shim) Completed(b *memreq.Built) {
	if s.delay > 0 {
		spin(s.delay)
	}
	s.log.calls = append(s.log.calls, call{cycle: s.log.now, n: uint32(b.Req.Tag - 1), kind: callCompleted})
	s.inner.Completed(b)
}

func (s *shim) Recycle(b *memreq.Built) {
	if r, ok := s.inner.(memreq.Recycler); ok {
		s.log.calls = append(s.log.calls, call{cycle: s.log.now, n: uint32(b.Req.Tag - 1), kind: callRecycled})
		r.Recycle(b)
	}
}

func (s *shim) Pending() int         { return s.inner.Pending() }
func (s *shim) Inflight() int        { return s.inner.Inflight() }
func (s *shim) Stats() *memreq.Stats { return s.inner.Stats() }
func (s *shim) Reset()               { s.inner.Reset() }

func (l *capture) pushes() (all, rejected int) {
	for _, c := range l.calls {
		switch c.kind {
		case callPush:
			all++
		case callPushRejected:
			all++
			rejected++
		}
	}
	return all, rejected
}

// replayCoalescer drives a fresh coalescer with the logged call sequence
// and reports its host cost. It fails if the fresh coalescer answers any
// call differently from the logged one.
func replayCoalescer(fresh memreq.Coalescer, l *capture, delay int) (cost, error) {
	built := make([]memreq.Built, 0, len(l.tx))
	var mismatch error
	ri := -1
	c := measure(func() {
		for _, k := range l.calls {
			if k.kind != callIdleTicks && k.kind != callRecycled {
				spin(delay)
			}
			switch k.kind {
			case callPush, callPushRejected:
				ri += int(k.n)
				if ok := fresh.Push(l.reqs[ri], k.cycle); ok != (k.kind == callPush) && mismatch == nil {
					mismatch = fmt.Errorf("push of request %d at cycle %d: accepted=%v on replay", ri, k.cycle, ok)
				}
			case callIdleTicks:
				for i := sim.Cycle(0); i < sim.Cycle(k.n); i++ {
					spin(delay)
					if out := fresh.Tick(k.cycle + i); len(out) != 0 && mismatch == nil {
						mismatch = fmt.Errorf("tick at cycle %d built %d transactions on replay, 0 logged", k.cycle+i, len(out))
					}
				}
			case callTick:
				out := fresh.Tick(k.cycle)
				if len(out) != int(k.n) && mismatch == nil {
					mismatch = fmt.Errorf("tick at cycle %d built %d transactions on replay, %d logged", k.cycle, len(out), k.n)
				}
				built = append(built, out...)
			case callCompleted, callRecycled:
				if int(k.n) >= len(built) {
					if mismatch == nil {
						mismatch = fmt.Errorf("completion of transaction %d before it was built", k.n)
					}
					continue
				}
				if k.kind == callCompleted {
					fresh.Completed(&built[k.n])
				} else if r, ok := fresh.(memreq.Recycler); ok {
					r.Recycle(&built[k.n])
				}
			}
		}
	})
	return c, mismatch
}

// replayDevice submits the captured transactions at their recorded
// cycles into a fresh device and ticks it every cycle, as the node does,
// until every response is back. When active is non-nil it marks the
// cycles on which responses came back.
func replayDevice(cfg hmc.Config, l *capture, cycles sim.Cycle, active []bool, delay int) (cost, *hmc.Stats, error) {
	dev, err := hmc.NewDevice(cfg)
	if err != nil {
		return cost{}, nil, err
	}
	got := 0
	c := measure(func() {
		j := 0
		for now := sim.Cycle(0); now < cycles || dev.Pending() > 0; now++ {
			spin(delay)
			dev.CanAccept()
			for j < len(l.tx) && l.txAt[j] == now {
				r := l.tx[j]
				r.Tag = uint64(j + 1)
				dev.Submit(r, now)
				j++
			}
			resps := dev.Tick(now)
			if len(resps) > 0 && active != nil && now < cycles {
				active[now] = true
			}
			got += len(resps)
		}
	})
	if got != len(l.tx) {
		return c, nil, fmt.Errorf("device replay returned %d responses for %d transactions", got, len(l.tx))
	}
	return c, dev.Stats(), nil
}

// tracedNode runs a trace through a node built the way cpu.Run builds
// it, with the shim between node and coalescer.
func tracedNode(rcfg cpu.RunConfig, tr *trace.Trace, delay int) (*cpu.Result, *capture, error) {
	dev, err := hmc.NewDevice(rcfg.HMC)
	if err != nil {
		return nil, nil, err
	}
	coal, err := rcfg.NewCoalescer()
	if err != nil {
		return nil, nil, err
	}
	l := &capture{}
	n, err := cpu.NewNode(rcfg.Node, &shim{inner: coal, log: l, delay: delay}, dev)
	if err != nil {
		return nil, nil, err
	}
	if err := n.Load(tr); err != nil {
		return nil, nil, err
	}
	res, err := n.Run()
	return res, l, err
}

// coalAcc accumulates one coalescer design's replay costs and counts.
type coalAcc struct {
	cost               cost
	requests           float64
	pushes, rejects    float64
	targets, txCounted float64
}

// simLayers accumulates the per-layer table of a traced simulation pass.
type simLayers struct {
	events                                float64
	gen                                   cost
	cpuRun, cpuSelf                       cost
	cycles, idle, stalls, threadCycles    float64
	coal                                  map[string]*coalAcc
	hmc                                   cost
	tx, conflicts, waits, data, control   float64
	rowHits, rowAll                       float64
	cube                                  cost
	cubeTx, cubeCredit, cubeBusy, hops    float64
	noc                                   cost
	msgs, nocCredit, nocBusy, nocLatSum   float64
	numaRun, numaSelf                     cost
	numaCycles, numaRemote, numaRemoteDen float64
	arq                                   []float64
}

// coreDelay is the injected delay per call of the MAC coalescer's shim.
func coreDelay(cfg runConfig, kind cpu.CoalescerKind) int {
	if cfg.inject == "core" && kind == cpu.WithMAC {
		return injectSpin
	}
	return 0
}

// tracedSim makes the traced pass: each op runs again with a span around
// every call into a layer, then each layer is replayed alone from the
// stream captured at its input boundary.
func tracedSim(ps []prepared, untraced passResult, cfg runConfig, tr *tracer, o *outcome, log io.Writer) error {
	hmcDelay := 0
	if cfg.inject == "hmc" {
		hmcDelay = injectSpin
	}
	L := &simLayers{coal: map[string]*coalAcc{}}
	var rootTotal, glue time.Duration
	// run times one traced call as a root span holding the layer span the
	// call is, so that glue is whatever the root spends outside it.
	run := func(p prepared, name, layer string, f func() (cost, error)) (cost, error) {
		start := time.Now()
		c, err := f()
		end := time.Now()
		o.attempted++
		if err != nil {
			return c, err
		}
		root := span{Name: p.op.name, Layer: "op", ID: p.op.name, Parent: -1, Start: start, End: end}
		child := span{Name: name, Layer: layer, ID: p.op.name, Start: start, End: start.Add(c.dur)}
		rootTotal += root.dur()
		glue += selfTime(root, []span{child})
		child.Parent = tr.add(root)
		tr.add(child)
		return c, nil
	}
	for i, p := range ps {
		L.events += float64(p.events)
		L.gen = L.gen.add(p.gen)
		if p.op.kind == "numa" {
			var rep *mac3d.NUMAReport
			c, err := run(p, "mac3d.RunNUMA", "numa", func() (cost, error) {
				var err error
				return measure(func() { rep, err = mac3d.RunNUMA(numaOptions(p.op, cfg.seed)) }), err
			})
			if err != nil {
				o.fail(log, "%s traced: %v", p.op.name, err)
				continue
			}
			if untraced.okOps[i] && rep.Cycles != untraced.ops[i].cycles() {
				o.fail(log, "%s: traced run took %d cycles, untraced %d", p.op.name, rep.Cycles, untraced.ops[i].cycles())
			}
			L.numaRun = L.numaRun.add(c)
			L.numaCycles += float64(rep.Cycles)
			L.numaRemote += float64(rep.RemoteRequests)
			L.numaRemoteDen += float64(rep.MemRequests)
			t1 := time.Now()
			nc, msgs, st, err := replayNoC(p.tr, p.op.nodes)
			if err != nil {
				o.fail(log, "%s noc replay: %v", p.op.name, err)
				continue
			}
			tr.add(span{Name: "replay noc", Layer: "noc", ID: p.op.name, Parent: -1, Start: t1, End: t1.Add(nc.dur)})
			L.noc = L.noc.add(nc)
			L.msgs += float64(msgs)
			credit, _ := st.StallCycles()
			L.nocCredit += float64(credit)
			for _, ls := range st.Links {
				L.nocBusy += float64(ls.BusyCycles)
			}
			L.nocLatSum += st.NetLatency.Mean() * float64(msgs)
			// RunNUMA generates its trace itself: that share is the
			// workloads layer's, measured in setup.
			L.numaSelf = L.numaSelf.add(c.sub(p.gen).sub(nc))
			continue
		}
		designs := []mac3d.Design{p.op.design}
		if p.op.kind == "compare" {
			designs = []mac3d.Design{mac3d.DesignMAC, mac3d.DesignRaw}
		}
		for j, d := range designs {
			rcfg := cpu.DefaultRunConfig()
			kind, err := cpu.ParseKind(d.String())
			if err != nil {
				return err
			}
			rcfg.Kind = kind
			if rcfg.HMC.Cube, err = hmc.ParseCubeConfig(p.op.cube); err != nil {
				return err
			}
			var res *cpu.Result
			var l *capture
			c, err := run(p, "cpu.Node.Run "+d.String(), "cpu", func() (cost, error) {
				var err error
				return measure(func() { res, l, err = tracedNode(rcfg, p.tr, coreDelay(cfg, kind)) }), err
			})
			if err != nil {
				o.fail(log, "%s/%s traced: %v", p.op.name, d, err)
				continue
			}
			L.cpuRun = L.cpuRun.add(c)
			L.cpuSelf = L.cpuSelf.add(c)
			if err := replaySingle(p, j, res, l, rcfg, untraced, i, L, tr, coreDelay(cfg, kind), hmcDelay, o, log); err != nil {
				o.fail(log, "%s/%s replay: %v", p.op.name, d, err)
			}
		}
	}
	for i, p := range ps {
		if !untraced.okOps[i] {
			continue
		}
		for _, r := range untraced.ops[i].runs {
			if r.design == "mac" && p.op.kind != "numa" {
				L.arq = append(L.arq, r.arqOccupancy)
			}
		}
	}
	L.report(o)
	o.self["glue"] = glue
	o.values["glue.frac"] = ratio(glue.Seconds(), rootTotal.Seconds())
	o.values["trace.overhead_frac"] = ratio(rootTotal.Seconds(), untraced.wall.Seconds()) - 1
	o.notes["trace.overhead_frac"] = fmt.Sprintf("traced ops %.3fs over untraced pass %.3fs", rootTotal.Seconds(), untraced.wall.Seconds())
	o.spans = tr.spans
	return nil
}

// replaySingle checks one traced single-node run against its untraced
// twin and replays its coalescer and device alone.
func replaySingle(p prepared, j int, res *cpu.Result, l *capture, rcfg cpu.RunConfig, untraced passResult, opIdx int,
	L *simLayers, tr *tracer, coreDelay, hmcDelay int, o *outcome, log io.Writer) error {
	if untraced.okOps[opIdx] && j < len(untraced.ops[opIdx].runs) {
		u := untraced.ops[opIdx].runs[j]
		if uint64(res.Cycles) != u.cycles || res.Coalescer.Transactions != u.transactions || res.RequestLatency.Mean() != u.latency {
			o.fail(log, "%s/%s: traced run (%d cycles, %d tx, %.3f latency) differs from untraced (%d, %d, %.3f)",
				p.op.name, rcfg.Kind, res.Cycles, res.Coalescer.Transactions, res.RequestLatency.Mean(),
				u.cycles, u.transactions, u.latency)
		}
	}
	design := rcfg.Kind.String()
	layer := "coalesce." + design
	if rcfg.Kind == cpu.WithMAC {
		layer = "core"
	}
	fresh, err := rcfg.NewCoalescer()
	if err != nil {
		return err
	}
	t0 := time.Now()
	cc, err := replayCoalescer(fresh, l, coreDelay)
	if err != nil {
		return err
	}
	if fresh.Stats().Transactions != res.Coalescer.Transactions {
		return fmt.Errorf("coalescer replay built %d transactions, run %d", fresh.Stats().Transactions, res.Coalescer.Transactions)
	}
	tr.add(span{Name: "replay " + design, Layer: layer, ID: p.op.name, Parent: -1, Start: t0, End: t0.Add(cc.dur)})
	acc := L.coal[design]
	if acc == nil {
		acc = &coalAcc{}
		L.coal[design] = acc
	}
	acc.cost = acc.cost.add(cc)
	acc.requests += float64(res.Coalescer.RawRequests)
	pushes, rejects := l.pushes()
	acc.pushes += float64(pushes)
	acc.rejects += float64(rejects)
	acc.targets += float64(res.Coalescer.TargetsPerTx.Sum())
	acc.txCounted += float64(res.Coalescer.TargetsPerTx.Count())

	active := make([]bool, res.Cycles)
	t1 := time.Now()
	dc, dst, err := replayDevice(rcfg.HMC, l, res.Cycles, active, hmcDelay)
	if err != nil {
		return err
	}
	if dst.Requests != res.Device.Requests || dst.BankConflicts != res.Device.BankConflicts || dst.LastDone != res.Device.LastDone {
		return fmt.Errorf("device replay (%d tx, %d conflicts, done %d) differs from run (%d, %d, %d)",
			dst.Requests, dst.BankConflicts, dst.LastDone, res.Device.Requests, res.Device.BankConflicts, res.Device.LastDone)
	}
	routed := rcfg.HMC.Cube.Routed()
	devLayer := "hmc"
	if routed {
		devLayer = "hmc.cube"
	}
	tr.add(span{Name: "replay device " + rcfg.HMC.Cube.String(), Layer: devLayer, ID: p.op.name, Parent: -1, Start: t1, End: t1.Add(dc.dur)})
	ideal := dc
	if routed {
		icfg := rcfg.HMC
		if icfg.Cube, err = hmc.ParseCubeConfig(""); err != nil {
			return err
		}
		t2 := time.Now()
		if ideal, _, err = replayDevice(icfg, l, res.Cycles, nil, hmcDelay); err != nil {
			return err
		}
		tr.add(span{Name: "replay device ideal", Layer: "hmc", ID: p.op.name, Parent: -1, Start: t2, End: t2.Add(ideal.dur)})
		L.cube = L.cube.add(dc.sub(ideal))
		L.cubeTx += float64(res.Device.Requests)
		if st := res.Cube; st != nil {
			credit, _ := st.StallCycles()
			L.cubeCredit += float64(credit)
			for _, ls := range st.Links {
				L.cubeBusy += float64(ls.BusyCycles)
			}
			L.hops += st.AvgHops()
		}
	}
	L.hmc = L.hmc.add(ideal)

	d := res.Device
	L.tx += float64(d.Requests)
	L.conflicts += float64(d.BankConflicts)
	L.waits += float64(d.ConflictWaitCycles)
	L.data += float64(d.DataBytes)
	L.control += float64(d.ControlBytes)
	L.rowHits += float64(d.RowHits)
	L.rowAll += float64(d.RowHits + d.RowMisses + d.RowConflicts)

	L.cpuSelf = L.cpuSelf.sub(cc.add(dc))
	L.cycles += float64(res.Cycles)
	L.stalls += float64(res.IssueStalls)
	threads := 0
	for _, th := range p.tr.Threads {
		if len(th) > 0 {
			threads++
		}
	}
	L.threadCycles += float64(threads) * float64(res.Cycles)
	for _, c := range l.calls {
		if c.kind == callPush || c.kind == callPushRejected || c.kind == callTick {
			active[c.cycle] = true
		}
	}
	for _, a := range active {
		if !a {
			L.idle++
		}
	}
	return nil
}

// report turns the accumulated totals into per-layer metrics and self
// times.
func (L *simLayers) report(o *outcome) {
	for name, c := range map[string]cost{"workloads": L.gen, "cpu": L.cpuSelf, "hmc": L.hmc,
		"hmc.cube": L.cube, "noc": L.noc, "numa": L.numaSelf} {
		if c.dur != 0 {
			o.self[name] = c.dur
		}
	}
	for design, a := range L.coal {
		name := "coalesce." + design
		if design == "mac" {
			name = "core"
		}
		o.self[name] = a.cost.dur
	}
	v := o.values
	ns := func(c cost, units float64) float64 { return ratio(float64(c.dur.Nanoseconds()), units) }
	allocs := func(c cost, units float64) float64 { return ratio(float64(c.mallocs), units) }
	v["workloads.ns_per_event"] = ns(L.gen, L.events)
	v["workloads.allocs_per_event"] = allocs(L.gen, L.events)
	v["cpu.ns_per_cycle"] = ns(L.cpuRun, L.cycles)
	v["cpu.glue_ns_per_cycle"] = ns(L.cpuSelf, L.cycles)
	v["cpu.idle_cycle_frac"] = ratio(L.idle, L.cycles)
	v["cpu.issue_stall_frac"] = ratio(L.stalls, L.threadCycles)
	for design, a := range L.coal {
		prefix := "coalesce." + design + "."
		if design == "mac" {
			prefix = "core."
		}
		v[prefix+"ns_per_request"] = ns(a.cost, a.requests)
		v[prefix+"allocs_per_request"] = allocs(a.cost, a.requests)
		v[prefix+"targets_per_tx"] = ratio(a.targets, a.txCounted)
		v[prefix+"push_reject_frac"] = ratio(a.rejects, a.pushes)
	}
	v["core.arq_occupancy"] = mean(L.arq)
	v["hmc.ns_per_tx"] = ns(L.hmc, L.tx)
	v["hmc.allocs_per_tx"] = allocs(L.hmc, L.tx)
	v["hmc.bank_conflict_frac"] = ratio(L.conflicts, L.tx)
	v["hmc.conflict_wait_cycles_per_tx"] = ratio(L.waits, L.tx)
	v["hmc.bandwidth_eff"] = ratio(L.data, L.data+L.control)
	v["hmc.row_hit_rate"] = ratio(L.rowHits, L.rowAll)
	v["hmc.cube.ns_per_tx"] = ns(L.cube, L.cubeTx)
	v["hmc.cube.allocs_per_tx"] = allocs(L.cube, L.cubeTx)
	v["hmc.cube.credit_stall_frac"] = ratio(L.cubeCredit, L.cubeCredit+L.cubeBusy)
	v["hmc.cube.avg_hops"] = L.hops
	v["noc.ns_per_msg"] = ns(L.noc, L.msgs)
	v["noc.allocs_per_msg"] = allocs(L.noc, L.msgs)
	v["noc.credit_stall_frac"] = ratio(L.nocCredit, L.nocCredit+L.nocBusy)
	v["noc.avg_latency_cycles"] = ratio(L.nocLatSum, L.msgs)
	v["numa.ns_per_cycle"] = ns(L.numaRun, L.numaCycles)
	v["numa.glue_ns_per_cycle"] = ns(L.numaSelf, L.numaCycles)
	v["numa.remote_frac"] = ratio(L.numaRemote, L.numaRemoteDen)
}

// replayNoC replays through a fresh mesh fabric the request/response
// messages a trace implies on a NUMA system: thread t is homed on node
// t % nodes, and each access whose address the routing interleave places
// on another node crosses the fabric as a request and comes back as a
// response, sized as internal/numa sizes them. Threads' accesses are
// interleaved round-robin; every node injects as fast as the fabric
// accepts, responses first.
func replayNoC(tr *trace.Trace, nodes int) (cost, int, *noc.Stats, error) {
	fab, err := noc.New[int](noc.Config{
		Topology: noc.Mesh, Nodes: nodes, LinkLatency: sim.NewClock(0).CyclesForNanos(25),
		LinkBandwidth: 2, BufferFlits: 64, InjectDepth: 8,
	})
	if err != nil {
		return cost{}, 0, nil, err
	}
	// Payload is the response's flit count; 0 marks a response.
	reqs := make([][]noc.Message[int], nodes)
	for i, more := 0, true; more; i++ {
		more = false
		for th, events := range tr.Threads {
			if i >= len(events) {
				continue
			}
			more = true
			e := events[i]
			home := th % nodes
			if !e.Op.IsMemory() || addr.IsSPM(e.Addr) || addr.NodeOf(e.Addr, nodes, addr.RowBytes) == home {
				continue
			}
			reqFlits, respFlits := 1, 2
			switch e.Op {
			case trace.Store:
				reqFlits, respFlits = 2, 1
			case trace.Atomic:
				reqFlits = 2
			}
			reqs[home] = append(reqs[home], noc.Message[int]{Src: home, Dst: addr.NodeOf(e.Addr, nodes, addr.RowBytes), Flits: reqFlits, Payload: respFlits})
		}
	}
	total := 0
	for _, q := range reqs {
		total += 2 * len(q)
	}
	resps := make([][]noc.Message[int], nodes)
	delivered := 0
	sink := func(m noc.Message[int]) bool {
		if m.Payload > 0 {
			resps[m.Dst] = append(resps[m.Dst], noc.Message[int]{Src: m.Dst, Dst: m.Src, Flits: m.Payload})
		}
		delivered++
		return true
	}
	const maxCycles = 1 << 32
	c := measure(func() {
		for now := sim.Cycle(0); delivered < total && now < maxCycles; now++ {
			for n := 0; n < nodes; n++ {
				for len(resps[n]) > 0 && fab.Send(now, resps[n][0]) {
					resps[n] = resps[n][1:]
				}
				for len(reqs[n]) > 0 && fab.Send(now, reqs[n][0]) {
					reqs[n] = reqs[n][1:]
				}
			}
			fab.Tick(now)
			fab.Deliver(now, sink)
		}
	})
	if delivered != total {
		return c, total, nil, fmt.Errorf("noc replay delivered %d of %d messages", delivered, total)
	}
	return c, total, fab.Stats(), nil
}
