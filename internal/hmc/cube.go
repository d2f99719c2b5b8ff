// Cube-internal interconnect: the vault fabric of the 3D-stacked
// device. The pre-fabric model routed link→vault traffic through a
// fixed ReqPipeline/RespPipeline pair — a contention-free logic-layer
// switch. Hadidi et al. ("Performance Implications of NoCs on
// 3D-Stacked Memories", "Demystifying the Characteristics of
// 3D-Stacked Memories") show that the cube's internal network is what
// shapes the load–latency knee, so this file lets the device route
// that traffic through a real noc.Fabric instead:
//
//   - Topology "ideal" (the default) keeps the exact pre-fabric direct
//     dispatch: no fabric object is even constructed, so default
//     configurations are cycle-for-cycle identical to the old model
//     (pinned by the cube golden tests).
//   - "ring" and "mesh" build a credit-flow-controlled noc fabric of
//     Links+Vaults endpoints; every request crosses it from its
//     ingress-link node to its vault node, and every response crosses
//     back. ReqPipeline/RespPipeline are still charged (SerDes and
//     controller decode); the fabric replaces only the contention-free
//     switch crossing, adding per-hop latency, serialization and
//     backpressure on top.
//
// Two further knobs ride along, usable with any topology:
//
//   - PagePolicy "open" keeps each bank's last row open: a row hit
//     skips the activate, a row miss pays tRCD, and a row conflict
//     pays precharge+activate. "closed" (the default) is the paper's
//     every-access-is-a-miss timing, bit-identical to the old model.
//   - QuadrantPenalty charges extra cycles each way when a request's
//     vault lies outside its ingress link's quadrant (Hadidi's
//     quadrant locality: vaults are split evenly across the Links
//     ingress quadrants). 0 (the default) disables the effect.
package hmc

import (
	"fmt"
	"strings"

	"mac3d/internal/kv"
	"mac3d/internal/noc"
	"mac3d/internal/sim"
)

// Page policies.
const (
	// PageClosed is the paper's closed-page timing: every access pays
	// activate + precharge as part of bank occupancy.
	PageClosed = "closed"
	// PageOpen keeps the last-accessed row open in each bank's sense
	// amplifiers: hits skip the activate, conflicts pay an extra
	// precharge.
	PageOpen = "open"
)

// CubeConfig parameterizes the cube-internal fabric, row-buffer policy
// and quadrant locality. The zero value (ideal switch, closed page, no
// quadrant effect) reproduces the pre-fabric model cycle-for-cycle.
type CubeConfig struct {
	// Topology selects the vault interconnect: "ideal" (alias
	// "crossbar"; the pre-fabric contention-free switch), "ring" or
	// "mesh". Routed topologies span Links+Vaults fabric nodes.
	Topology string
	// HopCycles is the per-hop propagation latency of the routed
	// fabric in cycles (key "hop"; default 2, a sub-ns logic-layer
	// hop at 3.3 GHz). Ignored by ideal.
	HopCycles sim.Cycle
	// LinkBandwidth is the intra-cube link serialization width in 16B
	// flits per cycle (key "bw"; default 4). Ignored by ideal.
	LinkBandwidth int
	// BufferFlits sizes each fabric router's input buffer (key "buf";
	// default 64). Ignored by ideal.
	BufferFlits int
	// InjectDepth bounds each fabric node's injection queue in
	// messages (key "inject"; default 8). Ignored by ideal.
	InjectDepth int
	// MeshCols fixes the mesh width (key "cols"); 0 picks the
	// most-square factorization of Links+Vaults. Mesh only.
	MeshCols int
	// PagePolicy selects "closed" (default) or "open" row-buffer
	// handling (key "page").
	PagePolicy string
	// QuadrantPenalty is the extra traversal cost, in cycles each
	// way, of a request whose vault lies outside its ingress link's
	// quadrant (key "quad"; default 0).
	QuadrantPenalty sim.Cycle
}

// WithDefaults canonicalizes names and fills the unset routed-fabric
// fields. It is idempotent.
func (c CubeConfig) WithDefaults() CubeConfig {
	switch strings.ToLower(strings.TrimSpace(c.Topology)) {
	case "", noc.Ideal, "crossbar", "xbar":
		c.Topology = noc.Ideal
	case noc.Ring:
		c.Topology = noc.Ring
	case noc.Mesh:
		c.Topology = noc.Mesh
	default:
		// Leave the unknown name for Validate to report.
		c.Topology = strings.ToLower(strings.TrimSpace(c.Topology))
	}
	switch strings.ToLower(strings.TrimSpace(c.PagePolicy)) {
	case "", PageClosed:
		c.PagePolicy = PageClosed
	case PageOpen:
		c.PagePolicy = PageOpen
	default:
		c.PagePolicy = strings.ToLower(strings.TrimSpace(c.PagePolicy))
	}
	if c.Routed() {
		if c.HopCycles == 0 {
			c.HopCycles = 2
		}
		if c.LinkBandwidth == 0 {
			c.LinkBandwidth = 4
		}
		if c.BufferFlits == 0 {
			c.BufferFlits = 64
		}
		if c.InjectDepth == 0 {
			c.InjectDepth = 8
		}
	}
	return c
}

// Routed reports whether the cube traffic crosses a real noc fabric
// (ring or mesh) rather than the ideal direct-dispatch switch.
func (c CubeConfig) Routed() bool {
	switch strings.ToLower(strings.TrimSpace(c.Topology)) {
	case noc.Ring, noc.Mesh:
		return true
	}
	return false
}

// Validate reports the first configuration error, or nil. links and
// vaults are the owning device's organization (the fabric endpoint
// counts); pass the configured values so mesh factorization and node
// bounds are checked against the real device.
func (c CubeConfig) Validate(links, vaults int) error {
	c = c.WithDefaults()
	switch c.Topology {
	case noc.Ideal, noc.Ring, noc.Mesh:
	default:
		return fmt.Errorf("hmc: unknown cube topology %q (want ideal, crossbar, ring or mesh)", c.Topology)
	}
	switch c.PagePolicy {
	case PageClosed, PageOpen:
	default:
		return fmt.Errorf("hmc: unknown cube page policy %q (want closed or open)", c.PagePolicy)
	}
	if c.QuadrantPenalty > 1<<20 {
		return fmt.Errorf("hmc: cube quadrant penalty %d exceeds the 2^20 bound", c.QuadrantPenalty)
	}
	if !c.Routed() {
		return nil
	}
	ncfg, err := c.nocConfig(links, vaults)
	if err != nil {
		return err
	}
	if err := ncfg.Validate(); err != nil {
		return fmt.Errorf("hmc: cube fabric: %w", err)
	}
	return nil
}

// nocConfig lowers the cube config onto the interconnect package for a
// device with the given link and vault counts.
func (c CubeConfig) nocConfig(links, vaults int) (noc.Config, error) {
	c = c.WithDefaults()
	nodes := links + vaults
	if nodes > 1024 {
		return noc.Config{}, fmt.Errorf("hmc: cube fabric spans %d nodes (links %d + vaults %d), exceeding the 1024 bound",
			nodes, links, vaults)
	}
	return noc.Config{
		Topology:      c.Topology,
		Nodes:         nodes,
		LinkLatency:   c.HopCycles,
		LinkBandwidth: c.LinkBandwidth,
		BufferFlits:   c.BufferFlits,
		InjectDepth:   c.InjectDepth,
		MeshCols:      c.MeshCols,
	}, nil
}

// String renders the config in the canonical ParseCubeConfig syntax:
// ParseCubeConfig(c.String()) reproduces c (after WithDefaults).
func (c CubeConfig) String() string {
	c = c.WithDefaults()
	parts := []string{c.Topology}
	if c.Routed() {
		parts = append(parts,
			fmt.Sprintf("hop=%d", c.HopCycles),
			fmt.Sprintf("bw=%d", c.LinkBandwidth),
			fmt.Sprintf("buf=%d", c.BufferFlits),
			fmt.Sprintf("inject=%d", c.InjectDepth))
		if c.Topology == noc.Mesh && c.MeshCols != 0 {
			parts = append(parts, fmt.Sprintf("cols=%d", c.MeshCols))
		}
	}
	parts = append(parts, fmt.Sprintf("page=%s", c.PagePolicy))
	if c.QuadrantPenalty != 0 {
		parts = append(parts, fmt.Sprintf("quad=%d", c.QuadrantPenalty))
	}
	return strings.Join(parts, ",")
}

// cubeGrammar is the cube block's element set: the topology, then
// key=value elements.
var cubeGrammar = kv.Grammar{What: "hmc: cube", Head: "topology",
	Keys: []string{"hop", "bw", "buf", "inject", "cols", "page", "quad"}}

// ParseCubeConfig parses the CLI/flag/spec syntax for the cube block
// (see internal/kv):
//
//	TOPOLOGY[,key=value...]
//
// with keys hop (per-hop cycles), bw (flits/cycle), buf (input-buffer
// flits), inject (injection-queue messages), cols (mesh width), page
// (closed|open) and quad (quadrant-crossing cycles). The empty string
// parses as the default cube (ideal switch, closed page). Keys the
// topology ignores are rejected rather than silently dropped. It never
// panics, whatever the input (FuzzParseCubeConfig holds it to that),
// and anything it accepts passes Validate for the Table 1 device.
func ParseCubeConfig(s string) (CubeConfig, error) {
	var c CubeConfig
	err := cubeGrammar.Parse(s, func(k, v string) error {
		switch k {
		case "topology":
			c.Topology = strings.ToLower(v)
			switch c.Topology {
			case noc.Ideal, "crossbar", "xbar", noc.Ring, noc.Mesh:
				return nil
			}
			return fmt.Errorf("unknown topology %q (want ideal, crossbar, ring or mesh)", c.Topology)
		case "page":
			c.PagePolicy = strings.ToLower(v)
			if c.PagePolicy != PageClosed && c.PagePolicy != PageOpen {
				return fmt.Errorf("unknown page policy %q (want closed or open)", v)
			}
			return nil
		}
		hi := int64(1 << 20)
		switch k {
		case "bw":
			hi = 64 // flits/cycle, the noc bound
		case "cols":
			hi = 1024
		}
		n, err := kv.Int(k, v, 0, hi)
		if err != nil {
			return err
		}
		switch k {
		case "hop":
			c.HopCycles = sim.Cycle(n)
		case "bw":
			c.LinkBandwidth = int(n)
		case "buf":
			c.BufferFlits = int(n)
		case "inject":
			c.InjectDepth = int(n)
		case "cols":
			c.MeshCols = int(n)
		case "quad":
			c.QuadrantPenalty = sim.Cycle(n)
		}
		return nil
	})
	if err != nil {
		return CubeConfig{}, err
	}
	c = c.WithDefaults()
	if !c.Routed() {
		if c.HopCycles != 0 || c.LinkBandwidth != 0 || c.BufferFlits != 0 ||
			c.InjectDepth != 0 || c.MeshCols != 0 {
			return CubeConfig{}, fmt.Errorf("hmc: cube keys hop, bw, buf, inject and cols do not apply to the ideal topology")
		}
	}
	if c.Topology == noc.Ring && c.MeshCols != 0 {
		return CubeConfig{}, fmt.Errorf("hmc: cube cols only applies to the mesh topology")
	}
	// Validate against the Table 1 organization; device-specific
	// constraints (mesh factorization against other link/vault counts)
	// are re-checked by Config.Validate at construction.
	def := DefaultConfig()
	if err := c.Validate(def.Links, def.Vaults); err != nil {
		return CubeConfig{}, err
	}
	return c, nil
}

// --- cube fabric runtime ------------------------------------------------

// cubeMsg is one access crossing the intra-cube fabric: the request
// plus the bookkeeping the far endpoint needs. It lives in the
// Device's slab from Submit until its response leaves the fabric; the
// fabric and the injection queues carry only its int32 slab index.
type cubeMsg struct {
	// isResp distinguishes a vault→link response crossing from a
	// link→vault request crossing.
	isResp bool
	req    Request
	// submitted is the Submit cycle, for end-to-end latency.
	submitted sim.Cycle
	link      int
	vault     int
	// drop marks an access whose response is deliberately lost
	// (DropResponseEvery diagnostic hook).
	drop bool
	// conflicted records the bank-conflict outcome (responses only).
	conflicted bool
}

// never is a cycle no simulation reaches.
const never = ^sim.Cycle(0)

// cubeInject is one message waiting to enter the fabric once its ready
// cycle arrives (external-link serialization done, or DRAM data ready).
type cubeInject struct {
	ready sim.Cycle
	msg   int32 // slab index
}

// cubeState is the Device's fabric runtime; nil for the ideal cube.
type cubeState struct {
	fab noc.Fabric[int32]
	// msgs is the slab of accesses between Submit and response
	// delivery; free lists the released slots.
	msgs []cubeMsg
	free []int32
	// q holds per-fabric-node pending injections in arrival order:
	// requests queue at their ingress-link node, responses at their
	// vault node.
	q [][]cubeInject
	// due[n] is at most the earliest ready cycle in q[n], and nextDue
	// at most the earliest across all nodes; cubePump does not look at
	// a node, or at any node, before then.
	due     []sim.Cycle
	nextDue sim.Cycle
	// queued counts entries across q.
	queued int
	// next is the first cycle advance has not yet simulated.
	next sim.Cycle
	// deliver is the fabric's Deliver sink, built once; now is the
	// cycle it delivers at.
	deliver func(noc.Message[int32]) bool
	now     sim.Cycle
	// inFlight counts accesses between Submit and their response-heap
	// push (or drop): queued, crossing, or at a vault.
	inFlight int
}

// newCubeState builds d's fabric runtime for a routed cube config; it
// must only be called after Config.Validate accepted d.cfg.
func newCubeState(d *Device) (*cubeState, error) {
	ncfg, err := d.cfg.Cube.nocConfig(d.cfg.Links, d.cfg.Vaults)
	if err != nil {
		return nil, err
	}
	fab, err := noc.New[int32](ncfg)
	if err != nil {
		return nil, fmt.Errorf("hmc: cube fabric: %w", err)
	}
	c := &cubeState{
		fab: fab,
		q:   make([][]cubeInject, ncfg.Nodes),
		due: make([]sim.Cycle, ncfg.Nodes),
	}
	c.deliver = func(m noc.Message[int32]) bool {
		d.cubeDeliver(c.now, m.Payload)
		return true
	}
	return c, nil
}

// alloc stores m in a free slab slot and returns its index.
func (c *cubeState) alloc(m cubeMsg) int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.msgs[i] = m
		return i
	}
	c.msgs = append(c.msgs, m)
	return int32(len(c.msgs) - 1)
}

// cubeFlits clamps a packet's flit count to the fabric's message bound:
// the noc moves at most MaxMessageFlits per message, so larger packets
// serialize as a maximum-size fabric message (their full size is still
// charged on the external host link).
func cubeFlits(flits uint32) int {
	if flits > noc.MaxMessageFlits {
		return noc.MaxMessageFlits
	}
	return int(flits)
}

// quadPenalty returns the quadrant-crossing cost of reaching vault v
// from ingress link l: vaults are split evenly across the Links
// quadrants, and a vault outside its link's quadrant pays the
// configured penalty each way.
func (d *Device) quadPenalty(link, vault int) sim.Cycle {
	if d.cfg.Cube.QuadrantPenalty == 0 {
		return 0
	}
	if vault*d.cfg.Links/d.cfg.Vaults == link {
		return 0
	}
	return d.cfg.Cube.QuadrantPenalty
}

// cubeSubmit hands a request to the fabric runtime: it is queued at its
// ingress-link node and injected once the external link finishes
// serializing it (plus any quadrant-crossing cost). The vault queue
// slot is claimed now, exactly as the direct path does, so CanAccept
// backpressure is policy-identical across topologies.
func (d *Device) cubeSubmit(req Request, link, vault int, ready, now sim.Cycle, drop bool) {
	d.vaultPending[vault]++
	d.cube.inFlight++
	i := d.cube.alloc(cubeMsg{req: req, submitted: now, link: link, vault: vault, drop: drop})
	d.cubeEnqueue(link, ready+d.quadPenalty(link, vault), i)
}

// cubeEnqueue parks slab message i at fabric node n until ready.
func (d *Device) cubeEnqueue(n int, ready sim.Cycle, i int32) {
	c := d.cube
	if len(c.q[n]) == 0 || ready < c.due[n] {
		c.due[n] = ready
	}
	if c.queued == 0 || ready < c.nextDue {
		c.nextDue = ready
	}
	c.q[n] = append(c.q[n], cubeInject{ready: ready, msg: i})
	c.queued++
}

// cubeMessage builds the fabric message for slab entry i: a request
// crosses from its ingress link to its vault, a response back.
func (d *Device) cubeMessage(i int32) noc.Message[int32] {
	p := &d.cube.msgs[i]
	if p.isResp {
		return noc.Message[int32]{Src: d.cfg.Links + p.vault, Dst: p.link,
			Flits: cubeFlits(p.req.ResponseFlits()), Payload: i}
	}
	return noc.Message[int32]{Src: p.link, Dst: d.cfg.Links + p.vault,
		Flits: cubeFlits(p.req.RequestFlits()), Payload: i}
}

// cubeAdvance runs the fabric cycle loop up to and including now:
// injections whose ready cycle arrived enter the fabric, routers move
// flits, and deliveries land at vaults (starting the DRAM access) or
// back at links (finishing the response). Tick drives it; the loop is
// per-cycle so sparse Tick calls still simulate every cycle.
func (d *Device) cubeAdvance(now sim.Cycle) {
	c := d.cube
	for t := c.next; t <= now; t++ {
		if c.queued > 0 && c.nextDue <= t {
			d.cubePump(t)
		}
		if c.queued == 0 && c.fab.InFlight() == 0 {
			// Nothing to move: skip ahead without ticking empty
			// routers cycle by cycle.
			continue
		}
		c.fab.Tick(t)
		c.now = t
		c.fab.Deliver(t, c.deliver)
	}
	c.next = now + 1
}

// cubePump attempts every due injection. Refusals (full injection
// queue) block the refusing node's later due messages, preserving
// per-node order under backpressure; not-yet-due messages never block
// a due one behind them. Nodes whose earliest ready cycle is still
// ahead are skipped, and each visited queue is compacted in place.
func (d *Device) cubePump(t sim.Cycle) {
	c := d.cube
	c.nextDue = never
	for n, q := range c.q {
		if len(q) == 0 {
			continue
		}
		if c.due[n] > t {
			c.nextDue = min(c.nextDue, c.due[n])
			continue
		}
		kept := q[:0]
		due := never
		blocked := false
		for _, e := range q {
			if !blocked && e.ready <= t {
				if c.fab.Send(t, d.cubeMessage(e.msg)) {
					c.queued--
					continue
				}
				blocked = true
			}
			due = min(due, e.ready)
			kept = append(kept, e)
		}
		c.q[n] = kept
		c.due[n] = due
		if len(kept) > 0 {
			c.nextDue = min(c.nextDue, due)
		}
	}
}

// cubeDeliver handles the arrival of slab message i at cycle t.
func (d *Device) cubeDeliver(t sim.Cycle, i int32) {
	c := d.cube
	if p := &c.msgs[i]; !p.isResp {
		// Request reached its vault: controller decode, then the vault
		// access. The response crosses back once the data is ready.
		dataReady, conflicted := d.vaultAccess(p.req, p.vault, t+d.cfg.ReqPipeline)
		p.isResp = true
		p.conflicted = conflicted
		d.cubeEnqueue(d.cfg.Links+p.vault, dataReady+d.quadPenalty(p.link, p.vault), i)
		return
	}
	// Response back at its ingress link: the rest mirrors the direct
	// path from dataReady on. A dropped response's vault-queue slot
	// leaks there too.
	p := c.msgs[i]
	c.free = append(c.free, i)
	c.inFlight--
	d.respond(p.req, p.link, p.vault, p.submitted, t, p.conflicted, p.drop)
}

// CubeLinks returns the routed cube fabric's directed link count, or 0
// for the ideal cube — the chaos engine's SetCubeLinks input.
func (d *Device) CubeLinks() int {
	if d.cube == nil {
		return 0
	}
	return d.cube.fab.Links()
}

// StallCubeLink freezes one directed intra-cube fabric link until the
// given cycle (the chaos engine's cubelink stressor). The ideal cube
// has no links; the call is then a no-op, as it is for out-of-range
// link ids.
func (d *Device) StallCubeLink(link int, until sim.Cycle) {
	if d.cube == nil {
		return
	}
	d.cube.fab.StallLink(link, until)
}

// CubeStats returns the routed cube fabric's live interconnect
// statistics, or nil for the ideal cube.
func (d *Device) CubeStats() *noc.Stats {
	if d.cube == nil {
		return nil
	}
	return d.cube.fab.Stats()
}
