// Package chaos implements a deterministic chaos scheduler for the MAC
// simulator: a composition of cross-layer stressors — response
// delay/reorder storms on the device return path, fence storms on the
// request path, ARQ backpressure bursts that freeze the submit stage,
// transient vault unavailability inside the HMC model, and transient
// link stalls on the inter-node NoC fabric — all driven
// by a sim.RNG stream so the same profile and seed reproduce the same
// adversarial schedule bit-for-bit. It composes with the link-level
// fault injectors from internal/hmc (CRC errors, link failures,
// poisoned responses): the chaos engine perturbs timing and ordering,
// the fault injectors corrupt packets, and the audit ledger
// (internal/audit) checks that the pipeline's conservation invariants
// survive both at once.
package chaos

import (
	"fmt"
	"sort"

	"mac3d/internal/kv"
	"mac3d/internal/sim"
)

// Profile configures the chaos engine. The zero value disables every
// stressor. Rates are per-cycle Bernoulli probabilities in [0, 1];
// durations and stalls are in cycles.
type Profile struct {
	// DelayRate starts a response delay storm: while it lasts, every
	// device response is held back 1..DelayMax extra cycles.
	DelayRate float64
	// DelayDuration is the length of one delay storm.
	DelayDuration sim.Cycle
	// DelayMax bounds the per-response extra hold time.
	DelayMax sim.Cycle
	// ReorderRate reverses the delivery order of a same-cycle
	// response batch.
	ReorderRate float64
	// FenceRate injects a burst of FenceBurst memory fences into the
	// request router, forcing the aggregator to drain mid-stream.
	FenceRate  float64
	FenceBurst int
	// FreezeRate starts an ARQ backpressure burst: the node's submit
	// stage is frozen for FreezeDuration cycles, backing transactions
	// up inside the coalescer.
	FreezeRate     float64
	FreezeDuration sim.Cycle
	// VaultRate makes one random vault transiently unavailable for
	// VaultStall cycles (models refresh overruns / repair cycles).
	VaultRate  float64
	VaultStall sim.Cycle
	// LinkRate freezes one random NoC link for LinkStall cycles
	// (models SerDes retraining / lane degradation on the inter-node
	// fabric). Only drivers with a routed NoC have links to stall; the
	// stressor is inert elsewhere.
	LinkRate  float64
	LinkStall sim.Cycle
	// CubeLinkRate freezes one random intra-cube fabric link for
	// CubeLinkStall cycles (models TSV/partial-lane faults inside the
	// stacked device). Only devices with a routed cube fabric have
	// intra-cube links; the stressor is inert elsewhere.
	CubeLinkRate  float64
	CubeLinkStall sim.Cycle
	// Seed seeds the engine's private RNG stream. Two runs with the
	// same workload seed but different chaos seeds see different
	// adversarial schedules.
	Seed uint64
}

// codec declares every stressor of p once: its name, its rate field
// and its parameter fields with their defaults. ParseProfile,
// withDefaults and String derive from it.
func (p *Profile) codec() kv.Profile {
	return kv.Profile{What: "chaos", Seed: &p.Seed, Stressors: []kv.Stressor{
		{Name: "delay", Rate: &p.DelayRate, Params: []kv.Param{kv.P(&p.DelayDuration, 16), kv.P(&p.DelayMax, 32)}},
		{Name: "reorder", Rate: &p.ReorderRate},
		{Name: "fence", Rate: &p.FenceRate, Params: []kv.Param{kv.P(&p.FenceBurst, 2)}},
		{Name: "freeze", Rate: &p.FreezeRate, Params: []kv.Param{kv.P(&p.FreezeDuration, 8)}},
		{Name: "vault", Rate: &p.VaultRate, Params: []kv.Param{kv.P(&p.VaultStall, 32)}},
		{Name: "link", Rate: &p.LinkRate, Params: []kv.Param{kv.P(&p.LinkStall, 64)}},
		{Name: "cubelink", Rate: &p.CubeLinkRate, Params: []kv.Param{kv.P(&p.CubeLinkStall, 64)}},
	}}
}

// Enabled reports whether any stressor is active. It and Validate are
// written out rather than derived from codec: they run on every
// validation of a run config, and building the codec table allocates.
func (p Profile) Enabled() bool {
	return p.DelayRate > 0 || p.ReorderRate > 0 || p.FenceRate > 0 ||
		p.FreezeRate > 0 || p.VaultRate > 0 || p.LinkRate > 0 ||
		p.CubeLinkRate > 0
}

// withDefaults fills the durations a rate implies but the profile
// omitted, so `delay=0.01` alone is usable.
func (p Profile) withDefaults() Profile {
	p.codec().Defaults()
	return p
}

// Validate rejects out-of-range configurations.
func (p Profile) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"delay", p.DelayRate}, {"reorder", p.ReorderRate},
		{"fence", p.FenceRate}, {"freeze", p.FreezeRate},
		{"vault", p.VaultRate}, {"link", p.LinkRate},
		{"cubelink", p.CubeLinkRate},
	} {
		// The inverted comparison also rejects NaN rates.
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("chaos: %s rate %g outside [0, 1]", r.name, r.v)
		}
	}
	if p.FenceBurst < 0 {
		return fmt.Errorf("chaos: fence burst %d is negative", p.FenceBurst)
	}
	return nil
}

// String renders the profile in the canonical ParseProfile syntax;
// ParseProfile(p.String()) reproduces p exactly (after withDefaults).
func (p Profile) String() string { return p.codec().String() }

// Presets returns the named built-in profiles, sorted by name.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var presets = map[string]Profile{
	"mild": {
		DelayRate: 0.002, DelayDuration: 12, DelayMax: 16,
		ReorderRate: 0.02,
		FenceRate:   0.0005, FenceBurst: 1,
		VaultRate: 0.001, VaultStall: 16,
	},
	"storm": {
		DelayRate: 0.02, DelayDuration: 32, DelayMax: 64,
		ReorderRate: 0.2,
		FenceRate:   0.005, FenceBurst: 4,
		FreezeRate: 0.01, FreezeDuration: 12,
		VaultRate: 0.01, VaultStall: 48,
	},
}

// ParseProfile parses the -chaos-profile syntax (see internal/kv):
// either a preset name ("off", "mild", "storm") or a comma-separated
// stressor list
//
//	delay=RATE[:DURATION[:MAX]],reorder=RATE,fence=RATE[:BURST],
//	freeze=RATE[:DURATION],vault=RATE[:STALL],link=RATE[:STALL],
//	cubelink=RATE[:STALL],seed=N
//
// Omitted duration fields take per-stressor defaults. The empty string
// parses as the disabled profile.
func ParseProfile(s string) (Profile, error) {
	return kv.ParseProfile(s, presets, (*Profile).codec)
}
