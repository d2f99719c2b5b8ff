package cpu

import (
	"fmt"

	"mac3d/internal/chaos"
	"mac3d/internal/coalesce"
	"mac3d/internal/core"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/obs"
	"mac3d/internal/trace"
)

// CoalescerKind names the memory-path designs a run can use.
type CoalescerKind int

const (
	// WithMAC uses the paper's Memory Access Coalescer.
	WithMAC CoalescerKind = iota
	// WithoutMAC uses the raw FLIT-granularity path (the paper's
	// baseline for every with/without comparison).
	WithoutMAC
	// WithMSHR uses the conventional 64B miss-merging design of
	// §2.3, for the limitation study.
	WithMSHR
	// WithWarp uses the SIMT warp-lane coalescer (leader-mask
	// SameAddress/SameBlock grouping with warp suspend/resume).
	WithWarp
	// WithMemCache uses the die-stacked memory+cache frontend (part of
	// the stacked DRAM is an inclusive cache, part direct memory).
	WithMemCache
)

// Kinds returns every selectable coalescer kind, in display order.
// This is the single authority on which frontends exist: the facade
// Design enum (an alias of CoalescerKind), the CLI and the arena
// experiment all derive from it.
func Kinds() []CoalescerKind {
	return []CoalescerKind{WithMAC, WithoutMAC, WithMSHR, WithWarp, WithMemCache}
}

// valid reports whether k is one of Kinds.
func (k CoalescerKind) valid() bool { return k >= WithMAC && k <= WithMemCache }

// String names the kind.
func (k CoalescerKind) String() string {
	switch k {
	case WithMAC:
		return "mac"
	case WithoutMAC:
		return "raw"
	case WithMSHR:
		return "mshr"
	case WithWarp:
		return "warp"
	case WithMemCache:
		return "memcache"
	default:
		return fmt.Sprintf("CoalescerKind(%d)", int(k))
	}
}

// ParseKind resolves a kind name (the String form).
func ParseKind(s string) (CoalescerKind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	names := make([]string, 0, len(Kinds()))
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("cpu: unknown coalescer kind %q (have %v)", s, names)
}

// MarshalText renders the kind as its name, so kind fields are
// JSON-stable strings ("mac") rather than bare ints.
func (k CoalescerKind) MarshalText() ([]byte, error) {
	if !k.valid() {
		return nil, fmt.Errorf("cpu: unknown coalescer kind %d", int(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses a kind name.
func (k *CoalescerKind) UnmarshalText(text []byte) error {
	v, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// RunConfig bundles everything one timed run needs.
type RunConfig struct {
	Node     Config
	MAC      core.Config
	MSHR     coalesce.MSHRConfig
	Null     coalesce.NullConfig
	Warp     coalesce.WarpConfig
	MemCache coalesce.MemCacheConfig
	HMC      hmc.Config
	Kind     CoalescerKind
	// Obs, when non-nil, wires the run into an observability layer
	// (metrics registry, timeseries recorder, transaction tracer).
	// Nil keeps every probe a no-op.
	Obs *obs.Obs
	// Audit enables the request-lifecycle conservation ledger; the
	// end-of-run report lands in Result.Audit.
	Audit bool
	// Chaos configures the deterministic chaos engine; the zero
	// profile disables it.
	Chaos chaos.Profile
	// Retry is the requester-side poison-recovery policy; the zero
	// value keeps fail-on-poison behaviour.
	Retry memreq.RetryPolicy
}

// DefaultRunConfig returns the paper's Table 1 setup with MAC enabled.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Node:     DefaultConfig(),
		MAC:      core.DefaultConfig(),
		MSHR:     coalesce.DefaultMSHRConfig(),
		Null:     coalesce.DefaultNullConfig(),
		Warp:     coalesce.DefaultWarpConfig(),
		MemCache: coalesce.DefaultMemCacheConfig(),
		HMC:      hmc.DefaultConfig(),
		Kind:     WithMAC,
	}
}

// Validate reports the first configuration error, or nil. It is the
// one validator of a node's configuration: the facade's lowering and
// the NUMA system, which replicates one RunConfig per node, both call
// it. An unknown Kind is an error here because NewCoalescer would
// otherwise fall back to the MAC.
func (cfg RunConfig) Validate() error {
	if !cfg.Kind.valid() {
		return fmt.Errorf("cpu: unknown coalescer kind %d", int(cfg.Kind))
	}
	for _, validate := range [...]func() error{
		cfg.Node.Validate, cfg.MAC.Validate, cfg.MSHR.Validate, cfg.Warp.Validate,
		cfg.MemCache.Validate, cfg.HMC.Validate, cfg.Chaos.Validate, cfg.Retry.Validate,
	} {
		if err := validate(); err != nil {
			return err
		}
	}
	return nil
}

// NewCoalescer constructs the coalescer selected by cfg.Kind,
// returning a wrapped configuration error.
func (cfg RunConfig) NewCoalescer() (memreq.Coalescer, error) {
	switch cfg.Kind {
	case WithoutMAC:
		return coalesce.NewNull(cfg.Null), nil
	case WithMSHR:
		return coalesce.NewMSHR(cfg.MSHR), nil
	case WithWarp:
		return coalesce.NewWarp(cfg.Warp)
	case WithMemCache:
		return coalesce.NewMemCache(cfg.MemCache)
	default:
		return core.New(cfg.MAC)
	}
}

// Run replays tr through a freshly built node.
func Run(cfg RunConfig, tr *trace.Trace) (*Result, error) {
	dev, err := hmc.NewDevice(cfg.HMC)
	if err != nil {
		return nil, err
	}
	coal, err := cfg.NewCoalescer()
	if err != nil {
		return nil, err
	}
	n, err := NewNode(cfg.Node, coal, dev)
	if err != nil {
		return nil, err
	}
	n.AttachObs(cfg.Obs)
	if cfg.Audit {
		n.EnableAudit()
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	n.SetRetry(cfg.Retry)
	eng, err := chaos.NewEngine(cfg.Chaos, cfg.HMC.Vaults)
	if err != nil {
		return nil, err
	}
	// Routed cube fabrics expose their intra-cube links to the
	// cubelink stressor; the ideal cube reports 0 and the roll stays
	// gated off, preserving pre-cube RNG schedules.
	eng.SetCubeLinks(dev.CubeLinks())
	n.SetChaos(eng)
	if err := n.Load(tr); err != nil {
		return nil, err
	}
	return n.Run()
}

// Comparison holds a with/without-MAC pair over the same trace — the
// measurement behind Figures 10, 12, 13, 14, 15 and 17.
type Comparison struct {
	With    *Result
	Without *Result
}

// Compare runs tr twice, with the MAC and with the raw path.
func Compare(cfg RunConfig, tr *trace.Trace) (*Comparison, error) {
	withCfg := cfg
	withCfg.Kind = WithMAC
	w, err := Run(withCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("with MAC: %w", err)
	}
	withoutCfg := cfg
	withoutCfg.Kind = WithoutMAC
	wo, err := Run(withoutCfg, tr)
	if err != nil {
		return nil, fmt.Errorf("without MAC: %w", err)
	}
	return &Comparison{With: w, Without: wo}, nil
}

// CoalescingEfficiency is the Fig. 10 metric over this comparison:
// the fraction of raw requests MAC eliminated.
func (c *Comparison) CoalescingEfficiency() float64 {
	raw := c.Without.Device.Requests
	if raw == 0 {
		return 0
	}
	return 1 - float64(c.With.Device.Requests)/float64(raw)
}

// BankConflictReduction returns the Fig. 12 metric: conflicts removed.
func (c *Comparison) BankConflictReduction() int64 {
	return int64(c.Without.Device.BankConflicts) - int64(c.With.Device.BankConflicts)
}

// MemorySpeedup returns the Fig. 17 metric: the relative reduction of
// the mean memory access latency (issue to retire) achieved by MAC.
func (c *Comparison) MemorySpeedup() float64 {
	wo := c.Without.RequestLatency.Mean()
	w := c.With.RequestLatency.Mean()
	if wo == 0 {
		return 0
	}
	return 1 - w/wo
}

// MakespanSpeedup returns the end-to-end runtime ratio without/with.
func (c *Comparison) MakespanSpeedup() float64 {
	if c.With.Cycles == 0 {
		return 0
	}
	return float64(c.Without.Cycles) / float64(c.With.Cycles)
}

// BandwidthSaving returns the Fig. 14 metric: control-overhead bytes
// avoided by coalescing.
func (c *Comparison) BandwidthSaving() int64 {
	return int64(c.Without.Device.ControlBytes) - int64(c.With.Device.ControlBytes)
}
