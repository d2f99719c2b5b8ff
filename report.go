package mac3d

import (
	"fmt"

	"mac3d/internal/chaos"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/sim"
)

// bandwidthGBps converts bytes moved over a cycle count to GB/s.
func bandwidthGBps(bytes uint64, cycles sim.Cycle, clock *sim.Clock) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / clock.FreqHz
	return float64(bytes) / seconds / 1e9
}

// RunReport is the plain-data measurement set of one simulated run.
type RunReport struct {
	// Identification.
	Workload string `json:"workload"`
	Design   string `json:"design"`
	Threads  int    `json:"threads"`

	// Execution.
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	RPI          float64 `json:"rpi"`
	// RPC is raw memory requests offered per cycle (Eq. 2 / Fig. 9).
	RPC float64 `json:"rpc"`
	// MemAccessRate is the fraction of memory operations missing the
	// scratchpads and reaching the MAC.
	MemAccessRate float64 `json:"mem_access_rate"`
	// StallLSQ/StallRouter/StallFence decompose the cycles threads
	// spent unable to issue, by cause.
	StallLSQ    uint64 `json:"stall_lsq"`
	StallRouter uint64 `json:"stall_router"`
	StallFence  uint64 `json:"stall_fence"`

	// Request path.
	MemRequests  uint64 `json:"mem_requests"`
	SPMAccesses  uint64 `json:"spm_accesses"`
	Transactions uint64 `json:"transactions"`
	Bypassed     uint64 `json:"bypassed"`
	// CoalescingEfficiency is the fraction of raw requests removed
	// by coalescing (Eq. 3 as interpreted in DESIGN.md).
	CoalescingEfficiency float64 `json:"coalescing_efficiency"`
	// AvgTargetsPerTx is the mean raw requests per transaction
	// (Fig. 15).
	AvgTargetsPerTx float64 `json:"avg_targets_per_tx"`
	// TxBySize histograms emitted transactions by payload bytes.
	TxBySize map[uint32]uint64 `json:"tx_by_size"`

	// Device.
	BankConflicts uint64 `json:"bank_conflicts"`
	DataBytes     uint64 `json:"data_bytes"`
	ControlBytes  uint64 `json:"control_bytes"`
	// BandwidthEfficiency is Eq. 1 aggregated over all traffic.
	BandwidthEfficiency float64 `json:"bandwidth_efficiency"`
	// DataGBps is the achieved useful-data bandwidth over the run's
	// makespan at the 3.3 GHz master clock.
	DataGBps float64 `json:"data_gbps"`
	// LinkGBps is the total link traffic rate (data + control).
	LinkGBps float64 `json:"link_gbps"`

	// Latency (issue to retire, CPU cycles at 3.3 GHz).
	AvgLatencyCycles float64 `json:"avg_latency_cycles"`
	AvgLatencyNs     float64 `json:"avg_latency_ns"`
	P99LatencyCycles uint64  `json:"p99_latency_cycles"`
	MaxLatencyCycles uint64  `json:"max_latency_cycles"`

	// ARQOccupancy is the mean aggregated-request-queue occupancy
	// (MAC runs only).
	ARQOccupancy float64 `json:"arq_occupancy"`

	// Faults aggregates the link-fault machinery's counters; all zero
	// when fault injection is disabled.
	Faults FaultReport `json:"faults"`

	// Observability carries the run's metric snapshot, timeseries and
	// trace export; nil unless RunOptions.Observe.Enabled was set.
	Observability *ObsReport `json:"observability,omitempty"`

	// Audit carries the request-lifecycle conservation report; nil
	// unless RunOptions.Audit was set.
	Audit *AuditReport `json:"audit,omitempty"`
	// Chaos carries the injected-adversity counters; nil unless a
	// chaos profile was configured.
	Chaos *ChaosReport `json:"chaos,omitempty"`

	// Cube carries the intra-cube vault-fabric and page-policy
	// measurements; nil unless RunOptions.Cube selected something
	// beyond the default ideal/closed cube.
	Cube *CubeReport `json:"cube,omitempty"`

	// Warp carries the SIMT frontend's measurements; nil unless the
	// run used DesignWarp.
	Warp *WarpReport `json:"warp,omitempty"`
	// MemCache carries the die-stacked frontend's measurements; nil
	// unless the run used DesignMemCache.
	MemCache *MemCacheReport `json:"memcache,omitempty"`
}

// WarpReport summarizes the SIMT warp-lane frontend's behaviour.
type WarpReport struct {
	// WarpsFormed counts warps gathered from the lane queue.
	WarpsFormed uint64 `json:"warps_formed"`
	// WarpsSuspended counts warps suspended awaiting responses after
	// dispatching every mask group.
	WarpsSuspended uint64 `json:"warps_suspended"`
	// SameAddrTx and SameBlockTx split the emitted mask groups by
	// convergence: one shared address vs one shared lane block.
	SameAddrTx  uint64 `json:"same_addr_tx"`
	SameBlockTx uint64 `json:"same_block_tx"`
	// AvgMasksPerWarp is the mean mask-group transactions per warp
	// (1 = fully convergent).
	AvgMasksPerWarp float64 `json:"avg_masks_per_warp"`
	// MaxMasksPerWarp is the worst divergence observed.
	MaxMasksPerWarp uint64 `json:"max_masks_per_warp"`
}

// MemCacheReport summarizes the die-stacked memory+cache frontend's
// behaviour.
type MemCacheReport struct {
	// HitRate is hits over demand accesses that probed the tags.
	HitRate float64 `json:"hit_rate"`
	// Hits, Misses and MergedMisses classify cache-region accesses:
	// served by the stacked cache, allocating a fill, or riding an
	// in-flight fill.
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	MergedMisses uint64 `json:"merged_misses"`
	// Writebacks counts dirty-line eviction transactions.
	Writebacks uint64 `json:"writebacks"`
	// DirectAccesses counts requests routed to the directly addressed
	// partition.
	DirectAccesses uint64 `json:"direct_accesses"`
}

// AuditReport is the end-of-run request-lifecycle conservation result:
// every raw request must reach exactly one terminal outcome with its
// FLIT bytes conserved. Violations lists broken invariants as
// per-request diagnostic lines.
type AuditReport struct {
	// Issued counts raw requests registered (fences excluded).
	Issued uint64 `json:"issued"`
	// Delivered and Failed count terminal outcomes.
	Delivered uint64 `json:"delivered"`
	Failed    uint64 `json:"failed"`
	// Reissued counts poisoned completions re-issued under the retry
	// policy; Forgiven counts window-split requests whose poisoned
	// continuation bytes were waived as degraded data loss.
	Reissued uint64 `json:"reissued"`
	Forgiven uint64 `json:"forgiven"`
	// Open counts requests left without a terminal outcome.
	Open int `json:"open"`
	// Violations holds one rendered diagnostic per broken invariant;
	// OmittedViolations counts those beyond the reporting cap.
	Violations        []string `json:"violations,omitempty"`
	OmittedViolations uint64   `json:"omitted_violations"`
}

// Ok reports whether every lifecycle invariant held.
func (r *AuditReport) Ok() bool {
	return r != nil && len(r.Violations) == 0 && r.OmittedViolations == 0
}

// ChaosReport summarizes the adversity a chaos profile injected.
type ChaosReport struct {
	// Profile is the canonical rendering of the active profile.
	Profile string `json:"profile"`
	// DelayStorms counts storm windows; DelayedResponses the
	// responses held back inside them.
	DelayStorms      uint64 `json:"delay_storms"`
	DelayedResponses uint64 `json:"delayed_responses"`
	// ReorderedBatches counts response batches delivered reversed.
	ReorderedBatches uint64 `json:"reordered_batches"`
	// FencesInjected counts synthetic fences pushed into the router.
	FencesInjected uint64 `json:"fences_injected"`
	// FreezeCycles counts cycles the submit stage spent frozen.
	FreezeCycles uint64 `json:"freeze_cycles"`
	// VaultStalls counts transient vault-unavailability events.
	VaultStalls uint64 `json:"vault_stalls"`
	// LinkStalls counts transient NoC link-stall events (NUMA runs
	// with a routed interconnect; always zero for single-node runs).
	LinkStalls uint64 `json:"link_stalls"`
	// CubeLinkStalls counts transient intra-cube fabric link-stall
	// events (runs with a routed cube topology only).
	CubeLinkStalls uint64 `json:"cube_link_stalls"`
}

// CubeReport summarizes the cube-internal vault fabric and row-buffer
// behaviour of a run with a non-default cube configuration.
type CubeReport struct {
	// Config is the canonical rendering of the cube configuration.
	Config string `json:"config"`
	// Topology and PagePolicy echo the active selections.
	Topology   string `json:"topology"`
	PagePolicy string `json:"page_policy"`
	// RowHits/RowMisses/RowConflicts are the open-page row-buffer
	// outcome counts (all zero under closed-page timing), RowHitRate
	// the hit fraction.
	RowHits      uint64  `json:"row_hits"`
	RowMisses    uint64  `json:"row_misses"`
	RowConflicts uint64  `json:"row_conflicts"`
	RowHitRate   float64 `json:"row_hit_rate"`
	// FabricSent/FabricDelivered count messages crossing the routed
	// intra-cube fabric (two per access: request in, response out);
	// zero on the ideal topology.
	FabricSent      uint64 `json:"fabric_sent"`
	FabricDelivered uint64 `json:"fabric_delivered"`
	// FabricStallCycles sums credit and chaos stalls on intra-cube
	// links.
	FabricStallCycles uint64 `json:"fabric_stall_cycles"`
}

// FaultReport is the measurement set of the link-level fault model.
type FaultReport struct {
	// CRCErrors counts injected CRC errors across both directions.
	CRCErrors uint64 `json:"crc_errors"`
	// LinkRetries counts packet retransmissions.
	LinkRetries uint64 `json:"link_retries"`
	// RetryCycles accumulates the latency added by retries.
	RetryCycles uint64 `json:"retry_cycles"`
	// PoisonedResponses counts transactions whose retry budget was
	// exhausted; their raw requests retire with an error status.
	PoisonedResponses uint64 `json:"poisoned_responses"`
	// FailedRequests counts raw requests retired with an error status.
	FailedRequests uint64 `json:"failed_requests"`
	// LinkFailures counts transient link failures (retrains).
	LinkFailures uint64 `json:"link_failures"`
	// LinksDisabled counts links permanently taken out of service.
	LinksDisabled uint64 `json:"links_disabled"`
	// TokenStalls counts submissions deferred by exhausted link
	// tokens.
	TokenStalls uint64 `json:"token_stalls"`
	// DroppedResponses counts responses deliberately lost by the
	// DropResponseEvery diagnostic hook.
	DroppedResponses uint64 `json:"dropped_responses"`
	// RetriedRequests counts poisoned completions re-issued under
	// RunOptions.Retry (once per re-issue).
	RetriedRequests uint64 `json:"retried_requests"`
	// DuplicateResponses and UnknownResponses count deliveries the
	// response router discarded.
	DuplicateResponses uint64 `json:"duplicate_responses"`
	UnknownResponses   uint64 `json:"unknown_responses"`
	// TargetBufferRejects counts built transactions deferred because
	// the bounded target buffer was full.
	TargetBufferRejects uint64 `json:"target_buffer_rejects"`
}

// newRunReport renders one single-node run; cfg is the configuration
// opts lowered to.
func newRunReport(opts RunOptions, cfg cpu.RunConfig, res *cpu.Result) RunReport {
	clock := sim.NewClock(0)
	rep := RunReport{
		Workload:             opts.Workload,
		Design:               opts.Design.String(),
		Threads:              opts.Threads,
		Cycles:               uint64(res.Cycles),
		Instructions:         res.Instructions,
		IPC:                  res.IPC(),
		RPI:                  res.RPI(),
		RPC:                  res.RPC(),
		MemAccessRate:        res.MemAccessRate(),
		StallLSQ:             res.StallLSQ,
		StallRouter:          res.StallRouter,
		StallFence:           res.StallFence,
		MemRequests:          res.MemRequests,
		SPMAccesses:          res.SPMAccesses,
		Transactions:         res.Coalescer.Transactions,
		Bypassed:             res.Coalescer.Bypassed,
		CoalescingEfficiency: res.Coalescer.CoalescingEfficiency(),
		AvgTargetsPerTx:      res.Coalescer.AvgTargetsPerTx(),
		TxBySize:             map[uint32]uint64{},
		BankConflicts:        res.Device.BankConflicts,
		DataBytes:            res.Device.DataBytes,
		ControlBytes:         res.Device.ControlBytes,
		BandwidthEfficiency:  res.Device.BandwidthEfficiency(),
		DataGBps:             bandwidthGBps(res.Device.DataBytes, res.Cycles, clock),
		LinkGBps:             bandwidthGBps(res.Device.DataBytes+res.Device.ControlBytes, res.Cycles, clock),
		AvgLatencyCycles:     res.RequestLatency.Mean(),
		AvgLatencyNs:         res.RequestLatency.Mean() / clock.FreqHz * 1e9,
		P99LatencyCycles:     res.RequestLatency.Quantile(0.99),
		MaxLatencyCycles:     res.RequestLatency.Max(),
		ARQOccupancy:         res.ARQOccupancy,
		Chaos:                newChaosReport(cfg.Chaos, res.Chaos),
		Faults: FaultReport{
			CRCErrors:           res.Device.CRCErrors,
			LinkRetries:         res.Device.LinkRetries,
			RetryCycles:         res.Device.RetryCycles,
			PoisonedResponses:   res.Device.PoisonedResponses,
			FailedRequests:      res.FailedRequests,
			LinkFailures:        res.Device.LinkFailures,
			LinksDisabled:       res.Device.LinksDisabled,
			TokenStalls:         res.Device.TokenStalls,
			DroppedResponses:    res.Device.DroppedResponses,
			RetriedRequests:     res.RetriedRequests,
			DuplicateResponses:  res.Responses.Duplicates,
			UnknownResponses:    res.Responses.Unknown,
			TargetBufferRejects: res.Responses.RegisterRejects,
		},
	}
	for size, n := range res.Coalescer.BuiltBySizeBytes {
		rep.TxBySize[size] = n
	}
	if w := res.Coalescer.Warp; w != nil {
		rep.Warp = &WarpReport{
			WarpsFormed:     w.WarpsFormed,
			WarpsSuspended:  w.WarpsSuspended,
			SameAddrTx:      w.SameAddrTx,
			SameBlockTx:     w.SameBlockTx,
			AvgMasksPerWarp: w.MasksPerWarp.Mean(),
			MaxMasksPerWarp: w.MasksPerWarp.Max(),
		}
	}
	if m := res.Coalescer.MemCache; m != nil {
		rep.MemCache = &MemCacheReport{
			HitRate:        m.HitRate(),
			Hits:           m.Hits,
			Misses:         m.Misses,
			MergedMisses:   m.MergedMisses,
			Writebacks:     m.Writebacks,
			DirectAccesses: m.DirectAccesses,
		}
	}
	if a := res.Audit; a != nil {
		ar := &AuditReport{
			Issued:            a.Issued,
			Delivered:         a.Delivered,
			Failed:            a.Failed,
			Reissued:          a.Reissued,
			Forgiven:          a.Forgiven,
			Open:              a.Open,
			OmittedViolations: a.OmittedViolations,
		}
		for _, v := range a.Violations {
			ar.Violations = append(ar.Violations, v.String())
		}
		rep.Audit = ar
	}
	if opts.Cube != "" {
		rep.Cube = newCubeReport(cfg.HMC.Cube, res)
	}
	return rep
}

// newChaosReport renders a run's chaos counters under its lowered
// profile; nil when chaos was off.
func newChaosReport(p chaos.Profile, c *chaos.Stats) *ChaosReport {
	if c == nil {
		return nil
	}
	return &ChaosReport{
		Profile:          p.String(),
		DelayStorms:      c.DelayStorms,
		DelayedResponses: c.DelayedResponses,
		ReorderedBatches: c.ReorderedBatches,
		FencesInjected:   c.FencesInjected,
		FreezeCycles:     c.FreezeCycles,
		VaultStalls:      c.VaultStalls,
		LinkStalls:       c.LinkStalls,
		CubeLinkStalls:   c.CubeLinkStalls,
	}
}

// newCubeReport renders the cube block of a run under its lowered cube
// config, summing the device and cube-fabric counters of every node.
func newCubeReport(cube hmc.CubeConfig, nodes ...*cpu.Result) *CubeReport {
	cr := &CubeReport{Config: cube.String(), Topology: cube.Topology, PagePolicy: cube.PagePolicy}
	for _, n := range nodes {
		cr.RowHits += n.Device.RowHits
		cr.RowMisses += n.Device.RowMisses
		cr.RowConflicts += n.Device.RowConflicts
		if n.Cube != nil {
			cr.FabricSent += n.Cube.Sent
			cr.FabricDelivered += n.Cube.Delivered
			credit, chaosStalls := n.Cube.StallCycles()
			cr.FabricStallCycles += credit + chaosStalls
		}
	}
	if total := cr.RowHits + cr.RowMisses + cr.RowConflicts; total > 0 {
		cr.RowHitRate = float64(cr.RowHits) / float64(total)
	}
	return cr
}

// String renders a compact one-line summary.
func (r *RunReport) String() string {
	return fmt.Sprintf("%s/%s t%d: %d reqs -> %d tx (eff %.1f%%), bw %.1f%%, avg lat %.0f cycles, %d conflicts",
		r.Workload, r.Design, r.Threads, r.MemRequests, r.Transactions,
		100*r.CoalescingEfficiency, 100*r.BandwidthEfficiency,
		r.AvgLatencyCycles, r.BankConflicts)
}

// CompareReport pairs a with-MAC and a without-MAC run over the same
// trace — the measurement behind Figures 10, 12, 13, 14, 15 and 17.
type CompareReport struct {
	With    RunReport `json:"with"`
	Without RunReport `json:"without"`

	// CoalescingEfficiency is 1 - with.Transactions/without (Fig 10).
	CoalescingEfficiency float64 `json:"coalescing_efficiency"`
	// MemorySpeedup is the relative reduction of the mean memory
	// access latency (Fig. 17's "memory system speedup").
	MemorySpeedup float64 `json:"memory_speedup"`
	// MakespanSpeedup is the end-to-end runtime ratio without/with.
	MakespanSpeedup float64 `json:"makespan_speedup"`
	// BankConflictReduction counts conflicts removed (Fig. 12).
	BankConflictReduction int64 `json:"bank_conflict_reduction"`
	// BandwidthSavingBytes is control overhead avoided (Fig. 14).
	BandwidthSavingBytes int64 `json:"bandwidth_saving_bytes"`
}

// String renders a compact summary.
func (r *CompareReport) String() string {
	return fmt.Sprintf("%s t%d: coalescing %.1f%%, mem speedup %.1f%%, conflicts -%d, saved %dB control",
		r.With.Workload, r.With.Threads, 100*r.CoalescingEfficiency,
		100*r.MemorySpeedup, r.BankConflictReduction, r.BandwidthSavingBytes)
}
