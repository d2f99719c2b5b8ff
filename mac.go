// Package mac3d is a library-grade reproduction of "MAC: Memory Access
// Coalescer for 3D-Stacked Memory" (ICPP 2019): a FLIT-granularity
// memory-access coalescer for Hybrid-Memory-Cube-class devices,
// together with every substrate its evaluation needs — a cycle-level
// HMC device model, a cache-less multicore node with scratchpads, the
// twelve instrumented benchmark kernels of the paper's §5.2, a cache
// simulator for the motivation study, and baseline coalescer designs.
//
// This root package is the public façade: it exposes plain
// configuration and report types so applications never touch the
// internal simulator packages directly.
//
// Quick start:
//
//	rep, err := mac3d.Compare(mac3d.RunOptions{Workload: "sg"})
//	if err != nil { ... }
//	fmt.Printf("coalescing efficiency: %.1f%%\n", 100*rep.CoalescingEfficiency)
//
// See examples/ for complete programs and cmd/experiments for the
// harness that regenerates every figure and table of the paper.
package mac3d

import (
	"fmt"
	"math"

	"mac3d/internal/chaos"
	"mac3d/internal/coalesce"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/sim"
	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// Scale selects a workload input size class. It is the internal
// workloads.Scale: its JSON form is the scale name ("tiny").
type Scale = workloads.Scale

const (
	// ScaleTiny runs in milliseconds (tests, smoke runs).
	ScaleTiny = workloads.Tiny
	// ScaleSmall is the default experiment size (seconds).
	ScaleSmall = workloads.Small
	// ScaleRef approximates the paper's working sets (minutes).
	ScaleRef = workloads.Ref
)

// ParseScale parses a scale name ("tiny", "small", "ref").
func ParseScale(s string) (Scale, error) { return workloads.ParseScale(s) }

// Design selects the memory-path design under test. It is the
// internal cpu.CoalescerKind: its JSON form is the design name
// ("mac").
type Design = cpu.CoalescerKind

const (
	// DesignMAC is the paper's Memory Access Coalescer.
	DesignMAC = cpu.WithMAC
	// DesignRaw is the uncoalesced FLIT-granularity path (the
	// paper's "without MAC" baseline).
	DesignRaw = cpu.WithoutMAC
	// DesignMSHR is the conventional 64B miss-merging coalescer of
	// the paper's §2.3 limitation discussion.
	DesignMSHR = cpu.WithMSHR
	// DesignWarp is the SIMT warp-lane coalescer: lanes gather into
	// warps served one leader-relative SameAddress/SameBlock mask
	// group per cycle, with warp suspend/resume.
	DesignWarp = cpu.WithWarp
	// DesignMemCache is the die-stacked memory+cache frontend: a
	// hash-partitioned share of the stacked DRAM acts as an inclusive
	// cache, the rest as directly addressed memory.
	DesignMemCache = cpu.WithMemCache
)

// Designs returns every selectable design, in display order.
func Designs() []Design { return cpu.Kinds() }

// ParseDesign parses a design name ("mac", "raw", "mshr", "warp",
// "memcache").
func ParseDesign(s string) (Design, error) { return cpu.ParseKind(s) }

// RunOptions configures one simulated execution. The zero value of
// every field selects the paper's Table 1 configuration.
//
// The type is JSON-stable: the lower-case field tags below are the
// wire format of the macd job API (see internal/service), so renaming
// or retyping them is a breaking API change.
type RunOptions struct {
	// Workload names a registered benchmark (see Workloads()).
	// Required for Run/Compare.
	Workload string `json:"workload,omitempty"`
	// Threads is the hardware thread count (default 8).
	Threads int `json:"threads,omitempty"`
	// Seed makes the run deterministic (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale selects the input size class (default ScaleTiny).
	Scale Scale `json:"scale,omitempty"`
	// Design selects the memory path (default DesignMAC).
	Design Design `json:"design,omitempty"`
	// Frontend tunes the selected coalescer frontend beyond its
	// defaults, as a comma-separated key=value list (see
	// coalesce.ParseTuning): lanes/warps for DesignWarp,
	// split/cache/line/ways for DesignMemCache. Empty keeps the
	// defaults; other designs ignore it (but it must still parse).
	Frontend string `json:"frontend,omitempty"`

	// ARQEntries overrides the aggregated-request-queue depth
	// (default 32, Table 1).
	ARQEntries int `json:"arq_entries,omitempty"`
	// WindowBytes overrides the coalescing window: 256 (the paper's
	// HMC row, default), 512 or 1024 — §4.3's "enlarged FLIT map and
	// FLIT table" generalization for future device generations.
	WindowBytes int `json:"window_bytes,omitempty"`
	// MaxTargetsPerEntry overrides the per-entry merge bound
	// (default 12, the 64B-entry capacity).
	MaxTargetsPerEntry int `json:"max_targets_per_entry,omitempty"`
	// DisableFillMode turns off the latency-hiding comparator
	// bypass of §4.1 (an ablation knob).
	DisableFillMode bool `json:"disable_fill_mode,omitempty"`
	// BuilderMinBytes selects the request builder's size floor: 64
	// (default, the paper's 64B-chunk design) or 16 (the
	// FLIT-granularity ablation of the §4.2 trade-off).
	BuilderMinBytes int `json:"builder_min_bytes,omitempty"`

	// Cores overrides the core count (default 8).
	Cores int `json:"cores,omitempty"`
	// MaxOutstanding overrides the per-core load/store queue depth
	// (default 256; see DESIGN.md on offered-load modelling).
	MaxOutstanding int `json:"max_outstanding,omitempty"`

	// HMCMaxInflight overrides the device's outstanding-transaction
	// bound (default 128 = 32 tags per link).
	HMCMaxInflight int `json:"hmc_max_inflight,omitempty"`
	// HMCLinks overrides the link count (default 4, Table 1).
	HMCLinks int `json:"hmc_links,omitempty"`
	// ModelRefresh enables periodic DRAM refresh in the device
	// (tREFI ≈ 7.8µs, tRFC ≈ 350ns), adding realistic latency
	// tails. Off by default, matching the paper's model.
	ModelRefresh bool `json:"model_refresh,omitempty"`
	// Cube configures the device's cube-internal vault fabric, page
	// policy, and quadrant locality, as "TOPOLOGY[,key=value...]"
	// (see hmc.ParseCubeConfig): topology ideal|crossbar|ring|mesh,
	// keys hop/bw/buf/inject/cols for routed fabrics, page=closed|open,
	// quad=N. Empty keeps the pre-fabric ideal switch with closed-page
	// timing, cycle-for-cycle identical to earlier releases.
	Cube string `json:"cube,omitempty"`

	// Faults configures link-level fault injection. The zero value
	// disables the fault machinery entirely: a zero-fault run is
	// byte-identical to one on a build without the subsystem.
	Faults FaultOptions `json:"faults"`

	// TargetBufferDepth bounds the response router's target buffer
	// (outstanding built transactions). 0 keeps it unbounded, the
	// paper's evaluation setup; a bounded buffer backpressures the
	// coalescer when full.
	TargetBufferDepth int `json:"target_buffer_depth,omitempty"`
	// WatchdogCycles overrides the simulation stall watchdog: a run
	// making no forward progress for this many cycles aborts with a
	// diagnostic error instead of spinning to the cycle limit.
	// Default 1,000,000; negative disables the watchdog.
	WatchdogCycles int64 `json:"watchdog_cycles,omitempty"`

	// Observe configures the cycle-level observability layer (metrics
	// registry, timeseries recorder, transaction tracer). Disabled by
	// default; when enabled the report carries an Observability block.
	// Run honours it; Compare ignores it (each registry belongs to
	// exactly one run — observe the two designs with separate Runs).
	Observe ObserveOptions `json:"observe"`

	// Audit enables the request-lifecycle conservation ledger: every
	// raw request is tracked from issue through route, coalesce,
	// device submit and response match, and the report carries an
	// Audit block asserting that each reached exactly one terminal
	// outcome with its bytes conserved. Off by default (zero cost).
	Audit bool `json:"audit,omitempty"`
	// Chaos configures the deterministic chaos engine (response
	// delay/reorder storms, fence storms, submit freezes, transient
	// vault unavailability). The zero value disables it.
	Chaos ChaosOptions `json:"chaos"`
	// Retry configures requester-side recovery from poisoned
	// completions. The zero value keeps fail-on-poison behaviour.
	Retry RetryOptions `json:"retry"`
}

// ChaosOptions selects a chaos profile for a run. All injection is
// driven by a dedicated seeded RNG, so a given profile and seed replay
// identically.
type ChaosOptions struct {
	// Profile is a preset name ("mild", "storm") or a stressor list in
	// the internal/chaos syntax, e.g.
	// "delay=0.01:16:32,reorder=0.1,fence=0.002:2,freeze=0.005:8,vault=0.01:32".
	// Empty or "off" disables chaos.
	Profile string `json:"profile,omitempty"`
	// Seed overrides the profile's chaos-RNG seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
}

// RetryOptions bounds requester-side re-issue of poisoned completions.
type RetryOptions struct {
	// MaxRetries is the per-request re-issue budget (0 disables).
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffCycles delays each re-issue (default 0: next cycle).
	BackoffCycles int64 `json:"backoff_cycles,omitempty"`
}

// FaultOptions configures the deterministic link-level fault model
// (HMC §2.2.2: CRC, link retry, token flow control). All injection is
// driven by a dedicated seeded RNG, so a given configuration replays
// identically.
type FaultOptions struct {
	// CRCErrorRate is the per-packet-transmission probability of a
	// CRC error forcing a link-retry (0 disables).
	CRCErrorRate float64 `json:"crc_error_rate,omitempty"`
	// LinkFailRate is the per-submission probability that the chosen
	// link suffers a transient failure and retrains (0 disables).
	LinkFailRate float64 `json:"link_fail_rate,omitempty"`
	// RetryLimit bounds retransmissions per packet before the device
	// gives up and returns a poisoned response (default 3).
	RetryLimit int `json:"retry_limit,omitempty"`
	// RetryDelay is the extra latency of one link retry round trip in
	// cycles (default 32).
	RetryDelay int64 `json:"retry_delay,omitempty"`
	// RetrainCycles is how long a failed link trains before carrying
	// traffic again (default 1024).
	RetrainCycles int64 `json:"retrain_cycles,omitempty"`
	// DisableLinkAfter permanently disables a link after this many
	// transient failures, re-spreading traffic over the survivors
	// (0 = never disable).
	DisableLinkAfter int `json:"disable_link_after,omitempty"`
	// LinkTokens enables token-based flow control with this many
	// credits per link (0 = disabled); exhausted tokens backpressure
	// submission.
	LinkTokens int `json:"link_tokens,omitempty"`
	// DropResponseEvery is a diagnostic hook: every Nth submitted
	// transaction loses its response, deterministically exercising
	// the stall watchdog (0 = disabled).
	DropResponseEvery uint64 `json:"drop_response_every,omitempty"`
	// Seed drives the fault RNG (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Normalize returns the options with Threads and Seed made explicit:
// the canonical form used by the macd job cache. Normalize is
// idempotent, and equal normalized options imply byte-identical
// reports. The converse does not hold: every other field keeps the
// caller's spelling, so an explicit default (ARQEntries 32,
// BuilderMinBytes 64, WatchdogCycles 1,000,000, Chaos profile "off")
// normalizes apart from the omitted field it equals.
func (o RunOptions) Normalize() RunOptions {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// maxServiceUnits bounds the resource-shaped knobs a job spec may
// request (threads, cores, queue depths): large enough for any
// configuration the paper's evaluation sweeps, small enough that one
// malformed or hostile spec cannot exhaust the daemon's memory.
const maxServiceUnits = 1 << 16

// field is one named numeric option. Callers list fields by name, so
// the first error reported for a spec is deterministic.
type field struct {
	name string
	v    int64
}

func checkNonNegative(kind string, fields ...field) error {
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("mac3d: %s.%s %d is negative", kind, f.name, f.v)
		}
	}
	return nil
}

func checkRate(kind, name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return fmt.Errorf("mac3d: %s.%s %v is not a probability in [0, 1]", kind, name, v)
	}
	return nil
}

// Validate reports the first configuration error, or nil. It accepts
// exactly the options Run/Compare accept: the workload must exist, no
// numeric knob may be negative (WatchdogCycles excepted — negative
// disables the watchdog), fault rates must be probabilities, and the
// lowered internal configurations must pass their own validators. The
// macd job-spec parser relies on Validate rejecting — never panicking
// on — arbitrary option values.
func (o RunOptions) Validate() error {
	_, err := o.lower(true)
	return err
}

// lower applies Validate's checks and lowers the options onto the
// internal configuration. Every entry point runs it exactly once per
// run. named says the entry point generates the named workload's
// trace: only then are the workload name and the scale checked, so a
// caller's own trace may run under any label.
func (o RunOptions) lower(named bool) (cpu.RunConfig, error) {
	if named {
		if o.Workload == "" {
			return cpu.RunConfig{}, fmt.Errorf("mac3d: RunOptions.Workload is required")
		}
		if err := workloads.Check(o.Workload); err != nil {
			return cpu.RunConfig{}, fmt.Errorf("mac3d: %w", err)
		}
		// A scale without a name is not one of the three size classes.
		if _, err := o.Scale.MarshalText(); err != nil {
			return cpu.RunConfig{}, err
		}
	}
	if err := checkNonNegative("RunOptions",
		field{"ARQEntries", int64(o.ARQEntries)},
		field{"BuilderMinBytes", int64(o.BuilderMinBytes)},
		field{"Cores", int64(o.Cores)},
		field{"Faults.DisableLinkAfter", int64(o.Faults.DisableLinkAfter)},
		field{"Faults.LinkTokens", int64(o.Faults.LinkTokens)},
		field{"Faults.RetrainCycles", o.Faults.RetrainCycles},
		field{"Faults.RetryDelay", o.Faults.RetryDelay},
		field{"Faults.RetryLimit", int64(o.Faults.RetryLimit)},
		field{"HMCLinks", int64(o.HMCLinks)},
		field{"HMCMaxInflight", int64(o.HMCMaxInflight)},
		field{"MaxOutstanding", int64(o.MaxOutstanding)},
		field{"MaxTargetsPerEntry", int64(o.MaxTargetsPerEntry)},
		field{"Observe.MaxTraceEvents", int64(o.Observe.MaxTraceEvents)},
		field{"Observe.SampleInterval", int64(o.Observe.SampleInterval)},
		field{"Retry.MaxRetries", int64(o.Retry.MaxRetries)},
		field{"TargetBufferDepth", int64(o.TargetBufferDepth)},
		field{"Threads", int64(o.Threads)},
		field{"WindowBytes", int64(o.WindowBytes)},
	); err != nil {
		return cpu.RunConfig{}, err
	}
	// Bound the resource-shaped knobs so a single spec cannot demand
	// absurd allocations (and so int -> uint32 lowering cannot wrap).
	for _, f := range [...]field{
		{"ARQEntries", int64(o.ARQEntries)},
		{"Cores", int64(o.Cores)},
		{"HMCLinks", int64(o.HMCLinks)},
		{"HMCMaxInflight", int64(o.HMCMaxInflight)},
		{"MaxOutstanding", int64(o.MaxOutstanding)},
		{"MaxTargetsPerEntry", int64(o.MaxTargetsPerEntry)},
		{"TargetBufferDepth", int64(o.TargetBufferDepth)},
		{"Threads", int64(o.Threads)},
		{"WindowBytes", int64(o.WindowBytes)},
	} {
		if f.v > maxServiceUnits {
			return cpu.RunConfig{}, fmt.Errorf("mac3d: RunOptions.%s %d exceeds the %d bound", f.name, f.v, maxServiceUnits)
		}
	}
	if err := checkRate("RunOptions", "Faults.CRCErrorRate", o.Faults.CRCErrorRate); err != nil {
		return cpu.RunConfig{}, err
	}
	if err := checkRate("RunOptions", "Faults.LinkFailRate", o.Faults.LinkFailRate); err != nil {
		return cpu.RunConfig{}, err
	}
	cfg := cpu.DefaultRunConfig()
	cfg.Kind = o.Design
	tuning, err := coalesce.ParseTuning(o.Frontend)
	if err != nil {
		return cfg, err
	}
	cfg.Warp = tuning.ApplyWarp(cfg.Warp)
	cfg.MemCache = tuning.ApplyMemCache(cfg.MemCache)
	if o.ARQEntries != 0 {
		cfg.MAC.ARQ.Entries = o.ARQEntries
	}
	if o.WindowBytes != 0 {
		cfg.MAC.ARQ.WindowBytes = uint32(o.WindowBytes)
	}
	switch o.BuilderMinBytes {
	case 0, 64:
		// the paper's design
	case 16:
		cfg.MAC.FineBuilder = true
	default:
		return cfg, fmt.Errorf("mac3d: BuilderMinBytes must be 16 or 64, got %d", o.BuilderMinBytes)
	}
	if o.MaxTargetsPerEntry != 0 {
		cfg.MAC.ARQ.MaxTargets = o.MaxTargetsPerEntry
	}
	if o.DisableFillMode {
		cfg.MAC.ARQ.FillMode = false
	}
	if o.Cores != 0 {
		cfg.Node.Cores = o.Cores
	}
	if o.MaxOutstanding != 0 {
		cfg.Node.MaxOutstanding = o.MaxOutstanding
	}
	if o.HMCMaxInflight != 0 {
		cfg.HMC.MaxInflight = o.HMCMaxInflight
	}
	if o.HMCLinks != 0 {
		cfg.HMC.Links = o.HMCLinks
	}
	if o.ModelRefresh {
		cfg.HMC.RefreshInterval = 25740 // tREFI at 3.3 GHz
		cfg.HMC.RefreshDuration = 1155  // tRFC
	}
	cube, err := hmc.ParseCubeConfig(o.Cube)
	if err != nil {
		return cfg, err
	}
	cfg.HMC.Cube = cube
	cfg.HMC.Faults = hmc.FaultConfig{
		CRCErrorRate:      o.Faults.CRCErrorRate,
		LinkFailRate:      o.Faults.LinkFailRate,
		RetryLimit:        o.Faults.RetryLimit,
		RetryDelay:        sim.Cycle(o.Faults.RetryDelay),
		RetrainCycles:     sim.Cycle(o.Faults.RetrainCycles),
		DisableLinkAfter:  o.Faults.DisableLinkAfter,
		LinkTokens:        o.Faults.LinkTokens,
		DropResponseEvery: o.Faults.DropResponseEvery,
		Seed:              o.Faults.Seed,
	}
	cfg.Node.TargetBufferDepth = o.TargetBufferDepth
	switch {
	case o.WatchdogCycles < 0:
		cfg.Node.StallLimit = 0
	case o.WatchdogCycles > 0:
		cfg.Node.StallLimit = sim.Cycle(o.WatchdogCycles)
	}
	cfg.Audit = o.Audit
	profile, err := chaos.ParseProfile(o.Chaos.Profile)
	if err != nil {
		return cfg, err
	}
	if o.Chaos.Seed != 0 {
		profile.Seed = o.Chaos.Seed
	}
	cfg.Chaos = profile
	if o.Retry.BackoffCycles < 0 {
		return cfg, fmt.Errorf("mac3d: Retry.BackoffCycles %d is negative", o.Retry.BackoffCycles)
	}
	cfg.Retry = memreq.RetryPolicy{
		MaxRetries: o.Retry.MaxRetries,
		Backoff:    sim.Cycle(o.Retry.BackoffCycles),
	}
	// Surface configuration mistakes as errors at the façade; the
	// internal constructors treat invalid config as programmer error
	// and panic.
	return cfg, cfg.Validate()
}

// generate builds the named workload's trace.
func (o RunOptions) generate() (*trace.Trace, error) {
	return workloads.Generate(o.Workload, workloads.Config{Threads: o.Threads, Seed: o.Seed, Scale: o.Scale})
}

// WorkloadInfo describes one registered benchmark kernel.
type WorkloadInfo struct {
	Name        string
	Description string
}

// Workloads lists the registered benchmark kernels.
func Workloads() []WorkloadInfo {
	names := workloads.Names()
	out := make([]WorkloadInfo, 0, len(names))
	for _, n := range names {
		k, err := workloads.New(n)
		if err != nil {
			continue
		}
		out = append(out, WorkloadInfo{Name: n, Description: k.Description()})
	}
	return out
}

// PaperWorkloads returns the 12 benchmark names in the paper's
// reporting order.
func PaperWorkloads() []string { return workloads.PaperSet() }

// Run executes one workload under the selected design and reports the
// measurements.
func Run(opts RunOptions) (*RunReport, error) { return run(opts, source{}) }

// Compare runs one workload twice — with MAC and with the raw path —
// and reports the paper's comparison metrics.
func Compare(opts RunOptions) (*CompareReport, error) { return compare(opts, source{}) }

// source is the trace a single-node entry point replays: the named
// workload's, generated on demand (a nil tr), or a caller's own trace,
// reported under label when RunOptions.Workload is empty and run with
// at least threads hardware threads.
type source struct {
	tr      *trace.Trace
	label   string
	threads int
}

// prepare is the one path from options to a run, shared by every
// single-node entry point: it fills the defaults, applies Validate's
// checks, lowers the options once and resolves the trace.
func prepare(opts RunOptions, src source) (RunOptions, cpu.RunConfig, *trace.Trace, error) {
	opts = opts.Normalize()
	cfg, err := opts.lower(src.tr == nil)
	if err != nil {
		return opts, cfg, nil, err
	}
	if src.tr == nil {
		tr, err := opts.generate()
		return opts, cfg, tr, err
	}
	if opts.Workload == "" {
		opts.Workload = src.label
	}
	opts.Threads = max(opts.Threads, src.threads)
	return opts, cfg, src.tr, nil
}

func run(opts RunOptions, src source) (*RunReport, error) {
	opts, cfg, tr, err := prepare(opts, src)
	if err != nil {
		return nil, err
	}
	cfg.Obs = opts.Observe.build()
	res, err := cpu.Run(cfg, tr)
	if err != nil {
		return nil, err
	}
	rep := newRunReport(opts, cfg, res)
	rep.Observability = newObsReport(cfg.Obs)
	return &rep, nil
}

func compare(opts RunOptions, src source) (*CompareReport, error) {
	opts, cfg, tr, err := prepare(opts, src)
	if err != nil {
		return nil, err
	}
	cmp, err := cpu.Compare(cfg, tr)
	if err != nil {
		return nil, err
	}
	withOpts := opts
	withOpts.Design = DesignMAC
	withoutOpts := opts
	withoutOpts.Design = DesignRaw
	return &CompareReport{
		With:                  newRunReport(withOpts, cfg, cmp.With),
		Without:               newRunReport(withoutOpts, cfg, cmp.Without),
		CoalescingEfficiency:  cmp.CoalescingEfficiency(),
		MemorySpeedup:         cmp.MemorySpeedup(),
		MakespanSpeedup:       cmp.MakespanSpeedup(),
		BankConflictReduction: cmp.BankConflictReduction(),
		BandwidthSavingBytes:  cmp.BandwidthSaving(),
	}, nil
}
