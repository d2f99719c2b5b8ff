package cluster

import (
	"encoding/json"
	"errors"
	"net/http"

	"mac3d/internal/service"
)

// Handler returns the router's HTTP API: the daemon's own /v1 routes
// (service.Routes), so a service.Client cannot tell a router from a
// daemon, plus GET /v1/cluster, the topology (shards, health, ring
// spread).
func Handler(r *Router) http.Handler {
	mux := service.Routes(r)
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.Topology())
	})
	return mux
}

// Health is the router's /v1/healthz body: it never drains, and it
// reports how many of its shards are healthy.
func (r *Router) Health() map[string]any {
	return map[string]any{
		"ok":             true,
		"draining":       false,
		"shards":         len(r.cfg.Shards),
		"shards_healthy": r.HealthyShards(),
	}
}

// RetryAfter is the Retry-After served with a shed request: the
// tenant's token deficit on a quota rejection, the cluster backlog
// hint on anything else.
func (r *Router) RetryAfter(err error, tenant string) int {
	if errors.Is(err, ErrQuotaExceeded) {
		return r.quotaRetryAfter(tenant)
	}
	return r.RetryAfterHint()
}

// ShardInfo is one shard's row in the /v1/cluster topology.
type ShardInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Fails   int    `json:"fails,omitempty"`
	Probes  uint64 `json:"probes"`
	LastErr string `json:"last_err,omitempty"`
	VNodes  int    `json:"vnodes"`
}

// Topology is the /v1/cluster response: the ring membership with live
// health and counters.
type Topology struct {
	Shards     []ShardInfo `json:"shards"`
	Jobs       int         `json:"jobs"`
	Failovers  uint64      `json:"failovers"`
	Evictions  uint64      `json:"evictions"`
	Readmitted uint64      `json:"readmissions"`
}

// Topology snapshots the cluster's membership and health.
func (r *Router) Topology() Topology {
	spread := r.ring.spread()
	r.mu.Lock()
	defer r.mu.Unlock()
	t := Topology{
		Jobs:       len(r.jobs),
		Failovers:  r.nFailovers,
		Evictions:  r.nEvictions,
		Readmitted: r.nReadmissions,
	}
	for i, u := range r.cfg.Shards {
		h := r.health[i]
		t.Shards = append(t.Shards, ShardInfo{
			URL: u, Healthy: h.healthy, Fails: h.fails,
			Probes: h.probes, LastErr: h.lastErr, VNodes: spread[i],
		})
	}
	return t
}
