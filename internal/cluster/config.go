// Package cluster is the shard/coordinator layer over the macd serving
// engine (internal/service): the piece that turns N independent
// daemons into one fault-tolerant simulation service.
//
// A Router owns a consistent-hash ring keyed on job-spec SHA-256 and
// forwards every submission to the shard owning its hash. Shards are
// health-checked (seeded jittered heartbeat probes, consecutive-failure
// eviction, re-admission on recovery); when a shard dies, the router
// eagerly fails accepted jobs over to the ring successor. Eager
// failover is safe because job identity is content-addressed: equal
// spec hash means a byte-identical report, so re-executing a job on
// another shard — even one that secretly completed on the dead shard —
// converges on exactly the same bytes. The worst case of a wrong
// failover decision is one redundant deterministic execution, never a
// divergent result.
//
// Shards complement the router with cross-instance read-through
// (PeerReadThrough): before executing, a shard consults its peers'
// content-addressed result stores, so a job re-routed after failover
// or resubmitted by a retrying client is served from wherever its
// bytes already live.
//
// The router also owns admission control: per-tenant token-bucket
// quotas shed load to 429 with a queue-depth-aware Retry-After before
// work ever reaches a shard.
package cluster

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"mac3d/internal/kv"
)

// Quota is one tenant's token-bucket admission budget: a sustained
// Rate of jobs per second with bursts up to Burst jobs. A zero Rate
// means unlimited.
type Quota struct {
	Rate  float64
	Burst float64
}

func (q Quota) enabled() bool { return q.Rate > 0 }

// Config parameterizes a cluster router.
type Config struct {
	// Shards lists the shard daemons' base URLs — the consistent-hash
	// ring members, in declaration order.
	Shards []string
	// VNodes is the number of virtual ring points per shard; more
	// points smooth the hash distribution (default 64).
	VNodes int
	// Heartbeat is the base health-probe period per shard
	// (default 500ms).
	Heartbeat time.Duration
	// HeartbeatJitter spreads each probe sleep uniformly in ±fraction
	// of itself from a seeded stream, de-synchronizing probe herds
	// (default 0.2).
	HeartbeatJitter float64
	// FailAfter is the consecutive probe-failure count that evicts a
	// shard from routing (default 3).
	FailAfter int
	// ReadmitAfter is the consecutive probe-success count that
	// re-admits an evicted shard (default 2).
	ReadmitAfter int
	// DefaultQuota is the admission budget of tenants without an
	// explicit entry in Tenants. The zero value is unlimited.
	DefaultQuota Quota
	// Tenants maps tenant name -> quota override.
	Tenants map[string]Quota
	// Seed seeds the deterministic jitter streams (0 means seed 1).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.2
	}
	if c.FailAfter == 0 {
		c.FailAfter = 3
	}
	if c.ReadmitAfter == 0 {
		c.ReadmitAfter = 2
	}
	c.DefaultQuota = c.DefaultQuota.normalize()
	for name, q := range c.Tenants {
		c.Tenants[name] = q.normalize()
	}
	return c
}

// normalize canonicalizes a quota: a zero rate is unlimited (burst is
// meaningless and dropped), and a rate with no burst allows bursts of
// one second's worth of jobs (but at least 1).
func (q Quota) normalize() Quota {
	if q.Rate == 0 {
		return Quota{}
	}
	if q.Rate > 0 && q.Burst <= 0 {
		q.Burst = math.Max(q.Rate, 1)
	}
	return q
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: no shards configured")
	}
	seen := make(map[string]bool, len(c.Shards))
	for _, s := range c.Shards {
		if err := ValidateShardURL(s); err != nil {
			return err
		}
		if seen[s] {
			return fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
	}
	if c.VNodes < 1 || c.VNodes > 4096 {
		return fmt.Errorf("cluster: vnodes %d outside [1, 4096]", c.VNodes)
	}
	if c.Heartbeat < 0 {
		return fmt.Errorf("cluster: negative heartbeat %s", c.Heartbeat)
	}
	if !(c.HeartbeatJitter >= 0 && c.HeartbeatJitter <= 1) {
		return fmt.Errorf("cluster: heartbeat jitter %g outside [0, 1]", c.HeartbeatJitter)
	}
	if c.FailAfter < 1 {
		return fmt.Errorf("cluster: fail-after %d < 1", c.FailAfter)
	}
	if c.ReadmitAfter < 1 {
		return fmt.Errorf("cluster: readmit-after %d < 1", c.ReadmitAfter)
	}
	if err := c.DefaultQuota.validate("default"); err != nil {
		return err
	}
	for name, q := range c.Tenants {
		if name == "" {
			return fmt.Errorf("cluster: empty tenant name")
		}
		if strings.ContainsAny(name, ",:=| \t\n") {
			return fmt.Errorf("cluster: tenant name %q contains reserved characters", name)
		}
		if err := q.validate(name); err != nil {
			return err
		}
	}
	return nil
}

func (q Quota) validate(tenant string) error {
	if math.IsNaN(q.Rate) || math.IsInf(q.Rate, 0) || q.Rate < 0 {
		return fmt.Errorf("cluster: tenant %q rate %g is not a finite non-negative number", tenant, q.Rate)
	}
	if math.IsNaN(q.Burst) || math.IsInf(q.Burst, 0) || q.Burst < 0 {
		return fmt.Errorf("cluster: tenant %q burst %g is not a finite non-negative number", tenant, q.Burst)
	}
	if q.Rate > 0 && q.Burst < 1 {
		return fmt.Errorf("cluster: tenant %q burst %g < 1 would admit nothing", tenant, q.Burst)
	}
	return nil
}

// ValidateShardURL reports why s cannot address a daemon: it must be an
// http(s)://host[:port] URL free of the characters the config syntax
// reserves. Router shards and a daemon's -peers both pass through it.
func ValidateShardURL(s string) error {
	if strings.ContainsAny(s, ",| \t\n") {
		return fmt.Errorf("cluster: shard URL %q contains reserved characters", s)
	}
	u, err := url.Parse(s)
	if err != nil {
		return fmt.Errorf("cluster: shard URL %q: %w", s, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: shard URL %q is not an http(s)://host[:port] address", s)
	}
	return nil
}

// String renders the config in the canonical ParseConfig syntax;
// ParseConfig(c.String()) reproduces c exactly (after withDefaults).
func (c Config) String() string {
	parts := []string{
		"shards=" + strings.Join(c.Shards, "|"),
		fmt.Sprintf("vnodes=%d", c.VNodes),
		fmt.Sprintf("hb=%s", c.Heartbeat),
		fmt.Sprintf("jitter=%g", c.HeartbeatJitter),
		fmt.Sprintf("fail=%d", c.FailAfter),
		fmt.Sprintf("readmit=%d", c.ReadmitAfter),
	}
	if c.DefaultQuota.enabled() {
		parts = append(parts, fmt.Sprintf("quota=%g:%g", c.DefaultQuota.Rate, c.DefaultQuota.Burst))
	}
	names := make([]string, 0, len(c.Tenants))
	for name := range c.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := c.Tenants[name]
		parts = append(parts, fmt.Sprintf("tenant=%s:%g:%g", name, q.Rate, q.Burst))
	}
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	}
	return strings.Join(parts, ",")
}

// configGrammar is the cluster config's element set; tenant repeats,
// one element per tenant.
var configGrammar = kv.Grammar{What: "cluster", Repeat: "tenant",
	Keys: []string{"shards", "vnodes", "hb", "jitter", "fail", "readmit", "quota", "tenant", "seed"}}

// ParseConfig parses the -cluster-router syntax (see internal/kv): a
// comma-separated key=value list
//
//	shards=URL|URL|...,vnodes=N,hb=DUR,jitter=F,fail=N,readmit=N,
//	quota=RATE:BURST,tenant=NAME:RATE:BURST,...,seed=N
//
// shards is mandatory; shard URLs are separated by "|". tenant may
// repeat, one entry per tenant. quota sets the default tenant budget
// (omitted means unlimited). Omitted tuning keys take the package
// defaults. It never panics, whatever the input (there is a fuzz
// target holding it to that).
func ParseConfig(s string) (Config, error) {
	var c Config
	err := configGrammar.Parse(s, func(k, v string) error {
		var err error
		switch k {
		case "shards":
			for _, u := range strings.Split(v, "|") {
				u = strings.TrimSpace(u)
				if u == "" {
					return fmt.Errorf("empty shard URL in %q", v)
				}
				c.Shards = append(c.Shards, u)
			}
		case "vnodes":
			if c.VNodes, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("bad vnodes %q: %w", v, err)
			}
		case "hb":
			if c.Heartbeat, err = time.ParseDuration(v); err != nil {
				return fmt.Errorf("bad heartbeat %q: %w", v, err)
			}
		case "jitter":
			c.HeartbeatJitter, err = kv.Rate(k, v)
		case "fail":
			if c.FailAfter, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("bad fail %q: %w", v, err)
			}
		case "readmit":
			if c.ReadmitAfter, err = strconv.Atoi(v); err != nil {
				return fmt.Errorf("bad readmit %q: %w", v, err)
			}
		case "quota":
			c.DefaultQuota, err = parseQuota(v, "quota")
		case "tenant":
			name, rest, ok := strings.Cut(v, ":")
			if !ok || name == "" {
				return fmt.Errorf("tenant %q is not NAME:RATE[:BURST]", v)
			}
			q, err := parseQuota(rest, "tenant "+name)
			if err != nil {
				return err
			}
			if c.Tenants == nil {
				c.Tenants = make(map[string]Quota)
			}
			if _, dup := c.Tenants[name]; dup {
				return fmt.Errorf("tenant %q given twice", name)
			}
			c.Tenants[name] = q
		case "seed":
			if c.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return fmt.Errorf("bad seed %q: %w", v, err)
			}
		}
		return err
	})
	if err != nil {
		return Config{}, err
	}
	c = c.withDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// parseQuota parses RATE[:BURST].
func parseQuota(v, what string) (Quota, error) {
	fields := strings.Split(v, ":")
	if len(fields) > 2 {
		return Quota{}, fmt.Errorf("%s %q takes at most RATE:BURST", what, v)
	}
	rate, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Quota{}, fmt.Errorf("bad %s rate %q: %w", what, fields[0], err)
	}
	q := Quota{Rate: rate}
	if len(fields) == 2 {
		burst, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return Quota{}, fmt.Errorf("bad %s burst %q: %w", what, fields[1], err)
		}
		q.Burst = burst
	}
	return q.normalize(), nil
}
