// Package svcchaos is the serving-layer chaos injector: the macd
// analogue of the simulator-core chaos engine (internal/chaos). Where
// that engine perturbs cycle-level timing inside one simulation, this
// one attacks the service around the simulations — killing workers
// mid-run through the runner hook, stalling runners, delaying HTTP
// requests, dropping freshly accepted connections through a wrapping
// listener, and opening full partition windows in front of a listener
// (the cluster plane's router-to-shard partition) — all drawn from one
// seeded RNG stream so a
// profile+seed pair reproduces the same adversarial pressure. It is
// the harness the crash-safe journal, the client retry/breaker stack
// and the abl-svcchaos conservation sweep are tested under.
package svcchaos

import (
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"mac3d/internal/kv"
	"mac3d/internal/service"
)

// Profile configures the injector. The zero value disables every
// stressor. Rates are Bernoulli probabilities in [0, 1] — per job for
// kill/stall, per request for delay, per connection for drop.
type Profile struct {
	// KillRate kills the worker mid-run: the job is abandoned
	// un-finalized, exactly as if the process had crashed under it —
	// only a journal-replaying restart re-queues it.
	KillRate float64
	// StallRate makes the runner sleep StallMs before executing,
	// modeling a slow shard.
	StallRate float64
	StallMs   int
	// DelayRate holds an HTTP request for DelayMs before handling it
	// (covers both submit and poll paths).
	DelayRate float64
	DelayMs   int
	// DropRate closes a just-accepted connection before any bytes
	// flow, forcing the client's transport-level retry.
	DropRate float64
	// PartitionRate opens a full network partition in front of the
	// listener: at this per-connection rate, the listener enters a
	// PartitionMs window during which every accepted connection
	// (including the triggering one) is dropped before any bytes flow.
	// Against a cluster this is the router-to-shard partition: the
	// shard stays alive and keeps executing, but the router's probes
	// and forwards all fail until the window closes.
	PartitionRate float64
	PartitionMs   int
	// Seed seeds the injector's private RNG stream.
	Seed uint64
}

// codec declares every stressor of p once: its name, its rate field
// and its parameter fields with their defaults. Parsing,
// withDefaults, validation and rendering all derive from it.
func (p *Profile) codec() kv.Profile {
	return kv.Profile{What: "svcchaos", Seed: &p.Seed, Stressors: []kv.Stressor{
		{Name: "kill", Rate: &p.KillRate},
		{Name: "stall", Rate: &p.StallRate, Params: []kv.Param{kv.P(&p.StallMs, 50)}},
		{Name: "delay", Rate: &p.DelayRate, Params: []kv.Param{kv.P(&p.DelayMs, 20)}},
		{Name: "drop", Rate: &p.DropRate},
		{Name: "partition", Rate: &p.PartitionRate, Params: []kv.Param{kv.P(&p.PartitionMs, 100)}},
	}}
}

// Enabled reports whether any stressor is active.
func (p Profile) Enabled() bool { return p.codec().Enabled() }

// withDefaults fills the durations a rate implies but the profile
// omitted, so `stall=0.2` alone is usable.
func (p Profile) withDefaults() Profile {
	p.codec().Defaults()
	return p
}

// Validate rejects out-of-range configurations.
func (p Profile) Validate() error { return p.codec().Validate() }

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
		StallRate: 0.1, StallMs: 20,
		DelayRate: 0.05, DelayMs: 10,
		DropRate: 0.02,
	},
	"storm": {
		KillRate:  0.25,
		StallRate: 0.3, StallMs: 80,
		DelayRate: 0.2, DelayMs: 40,
		DropRate: 0.2,
	},
	// split is the cluster-plane preset: the shard stays healthy but
	// its network flaps — drops plus full partition windows — the
	// pressure a router's health checker and failover path must absorb.
	"split": {
		DropRate:      0.1,
		PartitionRate: 0.05, PartitionMs: 150,
	},
}

// ParseProfile parses the -svcchaos syntax (see internal/kv): either a
// preset name ("off", "mild", "storm", "split") or a comma-separated
// stressor list
//
//	kill=RATE,stall=RATE[:MS],delay=RATE[:MS],drop=RATE,partition=RATE[:MS],seed=N
//
// Omitted duration fields take per-stressor defaults. The empty string
// parses as the disabled profile.
func ParseProfile(s string) (Profile, error) {
	return kv.ParseProfile(s, presets, (*Profile).codec)
}

// Report counts what the injector actually did.
type Report struct {
	Kills   uint64 `json:"kills"`
	Stalls  uint64 `json:"stalls"`
	Delays  uint64 `json:"delays"`
	Drops   uint64 `json:"drops"`
	Accepts uint64 `json:"accepts"`
	Runs    uint64 `json:"runs"`
	// Partitions counts partition windows entered; connections dropped
	// inside a window count under Drops.
	Partitions uint64 `json:"partitions"`
}

// Injector draws every chaos decision from one seeded RNG stream.
// Decisions taken under concurrency interleave with goroutine
// scheduling, so two runs see the same *pressure*, not the same
// schedule — the invariants the sweep checks (one terminal state per
// job, byte-identical results) must hold under any schedule, which is
// the point.
type Injector struct {
	p Profile

	mu  sync.Mutex
	rng *rand.Rand
	rep Report
	// partitionUntil is the end of the current partition window (zero
	// when none is open).
	partitionUntil time.Time

	// sleep and now are swapped out by tests to avoid real waiting.
	sleep func(time.Duration)
	now   func() time.Time
}

// New returns an injector for the profile (validated, with per-rate
// defaults applied).
func New(p Profile) (*Injector, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		p:     p,
		rng:   rand.New(rand.NewSource(int64(p.Seed))),
		sleep: time.Sleep,
		now:   time.Now,
	}, nil
}

// MustNew is New for profiles known valid (e.g. already parsed).
func MustNew(p Profile) *Injector {
	in, err := New(p)
	if err != nil {
		panic(err)
	}
	return in
}

// roll draws one Bernoulli decision.
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < rate
}

func (in *Injector) count(f func(*Report)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	f(&in.rep)
}

// Report snapshots the injector's activity counters.
func (in *Injector) Report() Report {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rep
}

// WrapRunner is the service.Config.WrapRunner hook: per job it may
// stall the runner (slow shard) and may kill the worker mid-run by
// returning service.ErrWorkerKilled — the service then abandons the
// job un-finalized, the on-disk journal keeps its start-without-
// terminal shape, and only a restart recovers it.
func (in *Injector) WrapRunner(next service.RunFunc) service.RunFunc {
	return func(spec service.Spec) ([]byte, error) {
		in.count(func(r *Report) { r.Runs++ })
		if in.roll(in.p.StallRate) {
			in.count(func(r *Report) { r.Stalls++ })
			in.sleep(time.Duration(in.p.StallMs) * time.Millisecond)
		}
		if in.roll(in.p.KillRate) {
			in.count(func(r *Report) { r.Kills++ })
			return nil, service.ErrWorkerKilled
		}
		return next(spec)
	}
}

// Middleware wraps the macd HTTP handler with seeded request delays.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.roll(in.p.DelayRate) {
			in.count(func(rep *Report) { rep.Delays++ })
			in.sleep(time.Duration(in.p.DelayMs) * time.Millisecond)
		}
		next.ServeHTTP(w, r)
	})
}

// Listener wraps a net.Listener: accepted connections are dropped
// (closed before any bytes flow) at DropRate, which the client sees as
// a reset/EOF — transport failures its retry budget must absorb.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, in: in}
}

type chaosListener struct {
	net.Listener
	in *Injector
}

func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.in.count(func(r *Report) { r.Accepts++ })
		if l.in.partitioned() {
			l.in.count(func(r *Report) { r.Drops++ })
			conn.Close()
			continue
		}
		if l.in.roll(l.in.p.DropRate) {
			l.in.count(func(r *Report) { r.Drops++ })
			conn.Close()
			continue
		}
		if l.in.roll(l.in.p.PartitionRate) {
			// Open a partition window: this connection and every one
			// accepted before the window closes is dropped.
			l.in.openPartition()
			l.in.count(func(r *Report) { r.Drops++ })
			conn.Close()
			continue
		}
		return conn, nil
	}
}

// partitioned reports whether a partition window is currently open.
func (in *Injector) partitioned() bool {
	if in.p.PartitionRate <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.now().Before(in.partitionUntil)
}

// openPartition starts (or extends) a partition window of PartitionMs.
func (in *Injector) openPartition() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rep.Partitions++
	in.partitionUntil = in.now().Add(time.Duration(in.p.PartitionMs) * time.Millisecond)
}
