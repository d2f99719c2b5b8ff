package experiments

import (
	"fmt"

	"mac3d/internal/chaos"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/noc"
	"mac3d/internal/stats"
)

// chaosSweepProfile is the composed adversity the abl-chaos sweep runs
// under: every stressor class active at once (delay/reorder storms on
// the return path, fence storms on the request path, submit freezes,
// transient vault stalls), on top of link CRC faults at a rate where
// the requester-side retry policy can still converge.
func chaosSweepProfile() chaos.Profile {
	return chaos.Profile{
		DelayRate: 0.004, DelayDuration: 12, DelayMax: 24,
		ReorderRate: 0.05,
		FenceRate:   0.001, FenceBurst: 2,
		FreezeRate: 0.002, FreezeDuration: 8,
		VaultRate: 0.002, VaultStall: 24,
	}
}

// chaosCubeProfile extends the sweep composition with the cube-link
// stressor, so the routed vault fabric's stall path is exercised under
// the same adversity the flat runs see.
func chaosCubeProfile() chaos.Profile {
	p := chaosSweepProfile()
	p.CubeLinkRate, p.CubeLinkStall = 0.002, 32
	return p
}

// AblationChaos sweeps chaos seeds over the ablation benchmark set
// with the full stressor composition, link CRC faults, a bounded
// requester-side retry policy, and the request-lifecycle audit ledger
// enabled. Every benchmark/seed pair runs twice: on the default ideal
// cube and on a routed ring vault fabric with the cubelink stressor
// added. Every run must finish with zero invariant violations and —
// because the retry budget comfortably covers the poison rate — zero
// failed requests; any break fails the experiment with the offending
// (benchmark, seed) and the ledger's per-request diagnostic diff.
func (s *Suite) AblationChaos() (*stats.Table, error) {
	seeds := []uint64{1, 2, 3}
	retry := memreq.RetryPolicy{MaxRetries: 8, Backoff: 16}
	const crcRate = 1e-3
	cubes := []struct {
		label   string
		cube    hmc.CubeConfig
		profile chaos.Profile
	}{
		{"ideal", hmc.CubeConfig{}, chaosSweepProfile()},
		{"ring", hmc.CubeConfig{Topology: noc.Ring}.WithDefaults(), chaosCubeProfile()},
	}

	t := stats.NewTable("Ablation: chaos sweep (audited conservation under adversity)",
		"benchmark", "seed", "cube", "cycles", "delayed", "fences", "freezes",
		"vault_stalls", "cube_stalls", "poisoned", "reissued", "failed", "violations")
	for _, name := range s.ablationSet() {
		for _, seed := range seeds {
			for _, cv := range cubes {
				res, err := s.MACChaosCube(name, 8, cv.profile, seed, crcRate, retry, cv.cube)
				if err != nil {
					return nil, fmt.Errorf("abl-chaos %s seed %d cube %s: %w", name, seed, cv.label, err)
				}
				a, c := res.Audit, res.Chaos
				if a == nil || c == nil {
					return nil, fmt.Errorf("abl-chaos %s seed %d cube %s: run missing audit/chaos report", name, seed, cv.label)
				}
				if !a.Ok() {
					return nil, fmt.Errorf("abl-chaos: invariant violations under %s seed %d cube %s (%s):\n%s",
						name, seed, cv.label, a, a.Diff())
				}
				if res.FailedRequests != 0 {
					return nil, fmt.Errorf("abl-chaos: %s seed %d cube %s: %d requests failed despite retry budget %d",
						name, seed, cv.label, res.FailedRequests, retry.MaxRetries)
				}
				t.AddRow(name, seed, cv.label, uint64(res.Cycles),
					c.DelayedResponses, c.FencesInjected, c.FreezeCycles,
					c.VaultStalls, c.CubeLinkStalls, res.Device.PoisonedResponses,
					res.RetriedRequests, res.FailedRequests,
					uint64(len(a.Violations))+a.OmittedViolations)
			}
		}
	}
	return t, nil
}
