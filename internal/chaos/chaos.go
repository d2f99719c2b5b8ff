package chaos

import (
	"fmt"

	"mac3d/internal/hmc"
	"mac3d/internal/sim"
)

// Stats counts the adversity the engine actually injected.
type Stats struct {
	// DelayStorms counts storm windows started; DelayedResponses the
	// responses held back inside them.
	DelayStorms      uint64
	DelayedResponses uint64
	// ReorderedBatches counts same-cycle response batches delivered
	// in reversed order.
	ReorderedBatches uint64
	// FencesInjected counts synthetic fences offered to the router.
	FencesInjected uint64
	// FreezeCycles counts cycles the submit stage spent frozen.
	FreezeCycles uint64
	// VaultStalls counts transient vault-unavailability events.
	VaultStalls uint64
	// LinkStalls counts transient NoC link-stall events.
	LinkStalls uint64
	// CubeLinkStalls counts transient intra-cube fabric link-stall
	// events.
	CubeLinkStalls uint64
}

// String renders a one-line summary.
func (s *Stats) String() string {
	if s == nil {
		return "chaos disabled"
	}
	return fmt.Sprintf("chaos: delay-storms=%d delayed=%d reordered=%d fences=%d freeze-cycles=%d vault-stalls=%d link-stalls=%d cube-link-stalls=%d",
		s.DelayStorms, s.DelayedResponses, s.ReorderedBatches,
		s.FencesInjected, s.FreezeCycles, s.VaultStalls, s.LinkStalls,
		s.CubeLinkStalls)
}

// heldResp is one response parked by a delay storm.
type heldResp struct {
	due  sim.Cycle
	resp hmc.Response
}

// Engine executes a Profile against one node's pipeline. The node
// driver calls Tick once per cycle (all RNG rolls happen there, in a
// fixed order, so the schedule is a pure function of profile+seed),
// then consults the stressor accessors. A nil *Engine disables
// everything; every method is nil-safe.
type Engine struct {
	p      Profile
	rng    *sim.RNG
	vaults int
	links  int

	delayUntil  sim.Cycle
	freezeUntil sim.Cycle
	fenceDebt   int
	stallVault  int
	stallUntil  sim.Cycle
	stallReady  bool
	held        []heldResp

	linkStall      int
	linkStallUntil sim.Cycle
	linkStallReady bool

	cubeLinks          int
	cubeLinkStall      int
	cubeLinkStallUntil sim.Cycle
	cubeLinkStallReady bool

	stats Stats
}

// NewEngine returns an engine for p, or nil when p disables every
// stressor. vaults is the device's vault count (targets for transient
// unavailability); pass 0 to disable the vault stressor.
func NewEngine(p Profile, vaults int) (*Engine, error) {
	if !p.Enabled() {
		// Defaults only touch stressors that are on; skipping them
		// keeps the disabled path free of allocations.
		return nil, p.Validate()
	}
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if vaults <= 0 {
		p.VaultRate = 0
	}
	return &Engine{p: p, rng: sim.NewRNG(p.Seed), vaults: vaults}, nil
}

// Enabled reports whether the engine injects anything (non-nil).
func (e *Engine) Enabled() bool { return e != nil }

// SetLinks tells the engine how many directed NoC links exist (targets
// for transient link stalls); pass 0 to disable the link stressor.
// Call before the first Tick — the link roll is gated on it, so a
// linkless driver (or one that never calls SetLinks) sees exactly the
// RNG stream it saw before the stressor existed.
func (e *Engine) SetLinks(n int) {
	if e == nil || n < 0 {
		return
	}
	e.links = n
}

// SetCubeLinks tells the engine how many directed intra-cube fabric
// links exist (targets for the cubelink stressor); pass 0 (or never
// call it, as drivers with an ideal cube do) to disable it. Like
// SetLinks, the roll is gated on it so pre-cube RNG schedules replay
// bit-for-bit.
func (e *Engine) SetCubeLinks(n int) {
	if e == nil || n < 0 {
		return
	}
	e.cubeLinks = n
}

// Tick rolls every stressor for cycle now. Call exactly once per
// cycle, before the stressor accessors.
func (e *Engine) Tick(now sim.Cycle) {
	if e == nil {
		return
	}
	// Fixed roll order keeps the schedule deterministic regardless of
	// which accessors the driver consults afterwards.
	if e.p.DelayRate > 0 && now >= e.delayUntil && e.rng.Float64() < e.p.DelayRate {
		e.delayUntil = now + e.p.DelayDuration
		e.stats.DelayStorms++
	}
	if e.p.FenceRate > 0 && e.rng.Float64() < e.p.FenceRate {
		e.fenceDebt += e.p.FenceBurst
	}
	if e.p.FreezeRate > 0 && now >= e.freezeUntil && e.rng.Float64() < e.p.FreezeRate {
		e.freezeUntil = now + e.p.FreezeDuration
	}
	if e.p.VaultRate > 0 && e.rng.Float64() < e.p.VaultRate {
		e.stallVault = e.rng.Intn(e.vaults)
		e.stallUntil = now + e.p.VaultStall
		e.stallReady = true
		e.stats.VaultStalls++
	}
	// The link roll comes last and only exists when the driver declared
	// links (SetLinks), so pre-NoC schedules replay bit-for-bit.
	if e.p.LinkRate > 0 && e.links > 0 && e.rng.Float64() < e.p.LinkRate {
		e.linkStall = e.rng.Intn(e.links)
		e.linkStallUntil = now + e.p.LinkStall
		e.linkStallReady = true
		e.stats.LinkStalls++
	}
	// The cubelink roll is appended after the link roll and gated on
	// SetCubeLinks, for the same replay reason.
	if e.p.CubeLinkRate > 0 && e.cubeLinks > 0 && e.rng.Float64() < e.p.CubeLinkRate {
		e.cubeLinkStall = e.rng.Intn(e.cubeLinks)
		e.cubeLinkStallUntil = now + e.p.CubeLinkStall
		e.cubeLinkStallReady = true
		e.stats.CubeLinkStalls++
	}
	if now < e.freezeUntil {
		e.stats.FreezeCycles++
	}
}

// SubmitFrozen reports whether an ARQ backpressure burst freezes the
// node's submit stage this cycle.
func (e *Engine) SubmitFrozen(now sim.Cycle) bool {
	return e != nil && now < e.freezeUntil
}

// TakeFence returns true while the node should inject one synthetic
// fence this cycle; each call consumes one fence of the pending burst.
func (e *Engine) TakeFence() bool {
	if e == nil || e.fenceDebt <= 0 {
		return false
	}
	e.fenceDebt--
	e.stats.FencesInjected++
	return true
}

// TakeVaultStall returns a pending transient vault-unavailability
// event: vault v is busy until the returned cycle. Consumed on read.
func (e *Engine) TakeVaultStall() (v int, until sim.Cycle, ok bool) {
	if e == nil || !e.stallReady {
		return 0, 0, false
	}
	e.stallReady = false
	return e.stallVault, e.stallUntil, true
}

// TakeLinkStall returns a pending transient link-stall event: directed
// NoC link l is frozen until the returned cycle (the driver forwards
// it to Fabric.StallLink). Consumed on read.
func (e *Engine) TakeLinkStall() (l int, until sim.Cycle, ok bool) {
	if e == nil || !e.linkStallReady {
		return 0, 0, false
	}
	e.linkStallReady = false
	return e.linkStall, e.linkStallUntil, true
}

// TakeCubeLinkStall returns a pending transient intra-cube link-stall
// event: directed cube-fabric link l is frozen until the returned cycle
// (the driver forwards it to Device.StallCubeLink). Consumed on read.
func (e *Engine) TakeCubeLinkStall() (l int, until sim.Cycle, ok bool) {
	if e == nil || !e.cubeLinkStallReady {
		return 0, 0, false
	}
	e.cubeLinkStallReady = false
	return e.cubeLinkStall, e.cubeLinkStallUntil, true
}

// Filter perturbs the device's response batch for cycle now: during a
// delay storm every incoming response is parked for 1..DelayMax extra
// cycles; previously parked responses whose hold expired are released
// (in park order); outside storms a batch may be delivered reversed.
// The returned slice replaces the device batch.
func (e *Engine) Filter(now sim.Cycle, in []hmc.Response) []hmc.Response {
	if e == nil {
		return in
	}
	var out []hmc.Response
	// Release parked responses that have served their hold.
	if len(e.held) > 0 {
		keep := e.held[:0]
		for _, h := range e.held {
			if h.due <= now {
				out = append(out, h.resp)
			} else {
				keep = append(keep, h)
			}
		}
		e.held = keep
	}
	if now < e.delayUntil {
		for _, r := range in {
			due := now + 1 + sim.Cycle(e.rng.Uint64n(uint64(e.p.DelayMax)))
			e.held = append(e.held, heldResp{due: due, resp: r})
			e.stats.DelayedResponses++
		}
		return out
	}
	if e.p.ReorderRate > 0 && len(in) > 1 && e.rng.Float64() < e.p.ReorderRate {
		for i, j := 0, len(in)-1; i < j; i, j = i+1, j-1 {
			in[i], in[j] = in[j], in[i]
		}
		e.stats.ReorderedBatches++
	}
	return append(out, in...)
}

// HeldResponses returns the number of responses parked by delay
// storms; the node's drained check must wait for it to reach zero.
func (e *Engine) HeldResponses() int {
	if e == nil {
		return 0
	}
	return len(e.held)
}

// Stats returns the injected-adversity counters, or nil when the
// engine is disabled.
func (e *Engine) Stats() *Stats {
	if e == nil {
		return nil
	}
	return &e.stats
}
