package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mac3d/internal/obs"
	"mac3d/internal/service"
)

// Sentinel errors of the router's submission path. Each also matches
// the service sentinel a client decodes from its HTTP status, so the
// /v1 handler answers it like a daemon's and errors.Is agrees in
// process and across the wire.
var (
	// ErrNoShards rejects a call because no healthy shard accepted it
	// (HTTP 503, a service.ErrDraining: the cluster is down or fully
	// saturated).
	ErrNoShards error = &classed{"cluster: no healthy shard available", service.ErrDraining}
	// ErrQuotaExceeded rejects a submission at admission control: the
	// tenant's token bucket is empty (HTTP 429, a service.ErrQueueFull).
	ErrQuotaExceeded error = &classed{"cluster: tenant quota exceeded", service.ErrQueueFull}
)

// classed is a sentinel with its own message that unwraps to the
// service sentinel of its HTTP status.
type classed struct {
	msg   string
	class error
}

func (e *classed) Error() string { return e.msg }
func (e *classed) Unwrap() error { return e.class }

// Router is the cluster coordinator: it owns the consistent-hash ring,
// the health plane, per-tenant admission control and the job table
// mapping router-scoped job IDs onto shard executions. Its HTTP
// surface (Handler) mirrors the macd daemon API exactly, so a
// service.Client pointed at a router works unmodified — macload, the
// experiments harness and every existing tool speak to a cluster the
// same way they speak to one daemon.
//
// The router's core invariant is exactly-one-terminal: every accepted
// job transitions to exactly one terminal state (done, failed or
// canceled), recorded once in the job table and immutable afterwards.
// Failover may re-execute a job on another shard, but because job
// identity is content-addressed and execution is deterministic, every
// execution of the same spec yields byte-identical bytes — so however
// many shards end up running a job, the single terminal record is the
// same one.
type Router struct {
	cfg  Config
	ring *ring
	reg  *obs.Registry

	// clients forward API calls per shard (retry + breaker); probes
	// are bare single-attempt clients for the health plane.
	clients []*service.Client
	probes  []*service.Client

	mu      sync.Mutex
	health  []shardHealth
	jobs    map[string]*rjob   // router job ID -> job
	byHash  map[string]*rjob   // spec hash -> job (router-level coalescing)
	order   []*rjob            // insertion order, for bounded retention
	tenants map[string]*bucket // tenant name -> admission bucket
	nextID  uint64

	nSubmits      uint64
	nAdmitRejects uint64
	nFailovers    uint64
	nForwardErrs  uint64
	nEvictions    uint64
	nReadmissions uint64
	nSpills       uint64

	stop chan struct{}
	wg   sync.WaitGroup
	// now is the admission-control clock, swappable in tests.
	now func() time.Time
}

// maxRetainedJobs bounds the router job table: beyond it, the oldest
// terminal jobs are retired (their IDs then answer 404, like a
// daemon's own retention limit).
const maxRetainedJobs = 4096

// rjob is the router-side record of one accepted job.
type rjob struct {
	id        string
	hash      string
	canonical []byte // canonical spec bytes: the failover replay payload
	tenant    string
	kind      service.Kind
	submitted time.Time

	mu        sync.Mutex
	shard     int    // current executing shard
	shardID   string // job ID on that shard
	state     service.State
	terminal  bool
	result    []byte
	errMsg    string
	cached    bool
	coalesced bool
	failovers int
}

// NewRouter builds a router over cfg's shards and starts the health
// probers. Close releases them.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:     cfg,
		ring:    newRing(cfg.Shards, cfg.VNodes),
		reg:     obs.NewRegistry(),
		jobs:    make(map[string]*rjob),
		byHash:  make(map[string]*rjob),
		tenants: make(map[string]*bucket),
		health:  make([]shardHealth, len(cfg.Shards)),
		stop:    make(chan struct{}),
		now:     time.Now,
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	for i, u := range cfg.Shards {
		// Forward clients retry once with a short backoff — the walk to
		// the ring successor is the real retry — and share a per-shard
		// breaker so a dead shard fails fast instead of eating a dial
		// timeout per job.
		r.clients = append(r.clients, &service.Client{
			BaseURL: u,
			Retry: service.RetryPolicy{
				MaxAttempts: 2, BaseDelay: 20 * time.Millisecond,
				MaxDelay: 200 * time.Millisecond, Multiplier: 2,
				Jitter: 0.2, Seed: seed + uint64(i) + 1,
			},
			Breaker:        &service.Breaker{FailureThreshold: 3, Cooldown: 500 * time.Millisecond},
			AttemptTimeout: 10 * time.Second,
		})
		r.probes = append(r.probes, &service.Client{BaseURL: u})
	}
	for i := range r.health {
		r.health[i].healthy = true
	}
	r.registerMetrics()
	r.startProbers()
	return r, nil
}

// Close stops the health probers. In-flight forwards finish on their
// own; shard daemons are not touched.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// Config returns the router's effective (defaulted) configuration.
func (r *Router) Config() Config { return r.cfg }

// Registry exposes the router metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

func (r *Router) registerMetrics() {
	get := func(f func() float64) func() float64 {
		return func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return f() }
	}
	r.reg.Func("cluster.submits", get(func() float64 { return float64(r.nSubmits) }))
	r.reg.Func("cluster.admission_rejects", get(func() float64 { return float64(r.nAdmitRejects) }))
	r.reg.Func("cluster.failovers", get(func() float64 { return float64(r.nFailovers) }))
	r.reg.Func("cluster.forward_errors", get(func() float64 { return float64(r.nForwardErrs) }))
	r.reg.Func("cluster.evictions", get(func() float64 { return float64(r.nEvictions) }))
	r.reg.Func("cluster.readmissions", get(func() float64 { return float64(r.nReadmissions) }))
	r.reg.Func("cluster.spills", get(func() float64 { return float64(r.nSpills) }))
	r.reg.Func("cluster.jobs", get(func() float64 { return float64(len(r.jobs)) }))
	r.reg.Func("cluster.shards_healthy", func() float64 { return float64(r.HealthyShards()) })
	r.reg.Func("cluster.shards", func() float64 { return float64(len(r.cfg.Shards)) })
}

// Submit validates, admits and routes one raw spec submission for
// tenant, returning a router-scoped job status.
func (r *Router) Submit(ctx context.Context, data []byte, tenant string) (service.JobStatus, error) {
	spec, err := service.ParseSpec(data)
	if err != nil {
		return service.JobStatus{}, err
	}
	canonical, err := spec.Canonical()
	if err != nil {
		return service.JobStatus{}, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return service.JobStatus{}, err
	}

	r.mu.Lock()
	if !r.admitLocked(tenant) {
		r.nAdmitRejects++
		r.mu.Unlock()
		return service.JobStatus{}, ErrQuotaExceeded
	}
	r.nSubmits++
	// Router-level coalescing: an identical spec already in the table
	// rides the existing execution (or serves the stored terminal) —
	// the cluster analogue of the daemon's single-flight.
	if j := r.byHash[hash]; j != nil {
		r.mu.Unlock()
		st := r.status(j)
		// The repeat itself is a hit: a live twin means this submit
		// coalesced onto its execution; a done twin is a cache serve.
		switch {
		case st.State == service.StateDone:
			st.Cached = true
		case !st.State.Terminal():
			st.Coalesced = true
		}
		return st, nil
	}
	r.nextID++
	j := &rjob{
		id:        fmt.Sprintf("r-%08d", r.nextID),
		hash:      hash,
		canonical: canonical,
		tenant:    tenant,
		kind:      spec.Kind,
		submitted: r.now(),
		shard:     -1,
		state:     service.StateQueued,
	}
	r.jobs[j.id] = j
	r.byHash[hash] = j
	r.order = append(r.order, j)
	r.retireLocked()
	r.mu.Unlock()

	if err := r.forward(ctx, j, -1); err != nil {
		// Nothing accepted the job; withdraw it so "accepted" remains
		// synonymous with "will reach a terminal state".
		r.mu.Lock()
		delete(r.jobs, j.id)
		if r.byHash[hash] == j {
			delete(r.byHash, hash)
		}
		for i, o := range r.order {
			if o == j {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
		r.mu.Unlock()
		return service.JobStatus{}, err
	}
	return r.status(j), nil
}

// forward places j on the first healthy shard in ring order, skipping
// exclude (the shard it just failed over from). A transport-dead or
// queue-full shard advances the walk; a spec rejection is final.
func (r *Router) forward(ctx context.Context, j *rjob, exclude int) error {
	healthy := r.healthySnapshot()
	var lastErr error
	tried := 0
	for _, shard := range r.ring.successors(j.hash) {
		if shard == exclude || !healthy[shard] {
			continue
		}
		tried++
		st, err := r.clients[shard].SubmitJSON(ctx, j.canonical)
		if err != nil {
			r.mu.Lock()
			r.nForwardErrs++
			if errors.Is(err, service.ErrQueueFull) {
				// Ownership spill: the owner is alive but saturated, so
				// the job lands on the successor. Content addressing
				// keeps this safe — any shard computes the same bytes.
				r.nSpills++
			}
			r.mu.Unlock()
			lastErr = err
			if retryableForward(err) {
				continue
			}
			return err
		}
		j.mu.Lock()
		j.shard = shard
		j.shardID = st.ID
		j.cached = j.cached || st.Cached
		j.coalesced = j.coalesced || st.Coalesced
		r.observeLocked(j, st)
		j.mu.Unlock()
		return nil
	}
	if lastErr == nil {
		lastErr = ErrNoShards
	}
	if tried == 0 {
		return fmt.Errorf("%w (%d shards, all evicted)", ErrNoShards, len(r.cfg.Shards))
	}
	return lastErr
}

// retryableForward reports whether a forward failure should advance
// the ring walk: transport failures, breaker rejections, backpressure
// and drain move on to the successor; spec rejections do not.
func retryableForward(err error) bool {
	// Anything the client's own retry layer classifies as transient is
	// a shard-availability problem, not a caller problem.
	return service.Retryable(err)
}

// observeLocked folds a shard-reported status into j (j.mu held).
// Terminal states latch: the first terminal observation wins and later
// ones are ignored, which is what makes the terminal record unique.
func (r *Router) observeLocked(j *rjob, st service.JobStatus) {
	if j.terminal {
		return
	}
	j.state = st.State
	j.errMsg = st.Error
	if st.State.Terminal() {
		j.terminal = true
	}
}

// status renders j as a requester-visible JobStatus under the router's
// ID namespace.
func (r *Router) status(j *rjob) service.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return service.JobStatus{
		ID:          j.id,
		Hash:        j.hash,
		Kind:        j.kind,
		State:       j.state,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Error:       j.errMsg,
		Recovered:   j.failovers > 0,
		SubmittedAt: j.submitted,
	}
}

// Job returns one router job's status, refreshing non-terminal jobs
// from their shard (and lazily failing over if the shard lost them).
func (r *Router) Job(ctx context.Context, id string) (service.JobStatus, error) {
	j := r.lookup(id)
	if j == nil {
		return service.JobStatus{}, service.ErrUnknownJob
	}
	r.refresh(ctx, j)
	return r.status(j), nil
}

// Jobs lists the router's retained jobs, newest first.
func (r *Router) Jobs() []service.JobStatus {
	r.mu.Lock()
	jobs := make([]*rjob, len(r.order))
	copy(jobs, r.order)
	r.mu.Unlock()
	out := make([]service.JobStatus, 0, len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		out = append(out, r.status(jobs[i]))
	}
	return out
}

func (r *Router) lookup(id string) *rjob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// refresh polls j's shard for its current state. A shard that no
// longer knows the job (restarted without its journal) or cannot be
// reached while evicted triggers a lazy failover.
func (r *Router) refresh(ctx context.Context, j *rjob) {
	j.mu.Lock()
	if j.terminal || j.shard < 0 {
		j.mu.Unlock()
		return
	}
	shard, shardID := j.shard, j.shardID
	j.mu.Unlock()

	st, err := r.clients[shard].Job(ctx, shardID)
	if err == nil {
		j.mu.Lock()
		r.observeLocked(j, st)
		j.mu.Unlock()
		return
	}
	if errors.Is(err, service.ErrUnknownJob) {
		// The shard is alive but lost the job (journalless restart):
		// re-place it immediately, on any healthy shard including this
		// one.
		r.failover(ctx, j, -1)
		return
	}
	if !r.shardHealthy(shard) {
		// The prober already evicted the shard; eager failover may be
		// racing us, but failover() serializes per job.
		r.failover(ctx, j, shard)
	}
	// Otherwise: transient error against a healthy shard — keep the
	// job where it is and let the next poll retry.
}

func (r *Router) shardHealthy(shard int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health[shard].healthy
}

// failover re-places one non-terminal job away from exclude. Safe to
// call concurrently (per-job mutex serializes) and safe to call
// spuriously: re-submitting a content-addressed spec to a shard that
// already ran it coalesces or cache-hits, it never forks the result.
func (r *Router) failover(ctx context.Context, j *rjob, exclude int) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	if err := r.forward(ctx, j, exclude); err != nil {
		// No healthy shard right now. The job stays on its dead shard's
		// books; the next poll or eviction retries. It is still
		// "accepted": the canonical bytes are retained and will be
		// re-placed as soon as a shard is admitted.
		return
	}
	j.mu.Lock()
	j.failovers++
	j.mu.Unlock()
	r.mu.Lock()
	r.nFailovers++
	r.mu.Unlock()
}

// failoverFrom eagerly re-places every non-terminal job accepted on a
// just-evicted shard onto its ring successor.
func (r *Router) failoverFrom(shard int) {
	r.mu.Lock()
	var victims []*rjob
	for _, j := range r.jobs {
		j.mu.Lock()
		if !j.terminal && j.shard == shard {
			victims = append(victims, j)
		}
		j.mu.Unlock()
	}
	r.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range victims {
		r.failover(ctx, j, shard)
	}
}

// Result returns a finished job's report bytes, fetching them from the
// executing shard (or, if it died first, from any peer's content-
// addressed store — and as a last resort by deterministic
// re-execution on a healthy shard).
func (r *Router) Result(ctx context.Context, id string) ([]byte, error) {
	j := r.lookup(id)
	if j == nil {
		return nil, service.ErrUnknownJob
	}
	r.refresh(ctx, j)

	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	if j.result != nil {
		data := j.result
		j.mu.Unlock()
		return data, nil
	}
	shard, shardID := j.shard, j.shardID
	j.mu.Unlock()

	switch state {
	case service.StateFailed, service.StateCanceled:
		return nil, fmt.Errorf("cluster: job %s %s: %s", id, state, errMsg)
	case service.StateDone:
	default:
		return nil, service.ErrNotFinished
	}

	if shard >= 0 {
		if data, err := r.clients[shard].Result(ctx, shardID); err == nil {
			r.storeResult(j, data)
			return data, nil
		}
	}
	// The executing shard is gone; any peer that saw this hash can
	// serve the identical bytes.
	if data, ok := r.resultFromPeers(ctx, j.hash, shard); ok {
		r.storeResult(j, data)
		return data, nil
	}
	// Last resort: recompute. Determinism makes this transparent — the
	// bytes are the ones the dead shard would have served.
	data, err := r.recompute(ctx, j)
	if err != nil {
		return nil, err
	}
	r.storeResult(j, data)
	return data, nil
}

func (r *Router) storeResult(j *rjob, data []byte) {
	j.mu.Lock()
	if j.result == nil {
		j.result = data
	}
	j.mu.Unlock()
}

// resultFromPeers consults every healthy shard's content-addressed
// store (skipping the shard already tried).
func (r *Router) resultFromPeers(ctx context.Context, hash string, skip int) ([]byte, bool) {
	healthy := r.healthySnapshot()
	for shard := range r.clients {
		if shard == skip || !healthy[shard] {
			continue
		}
		if data, err := r.clients[shard].ResultByHash(ctx, hash); err == nil {
			return data, true
		}
	}
	return nil, false
}

// recompute re-executes j's canonical spec on a healthy shard and
// waits for the (byte-identical) report.
func (r *Router) recompute(ctx context.Context, j *rjob) ([]byte, error) {
	healthy := r.healthySnapshot()
	for _, shard := range r.ring.successors(j.hash) {
		if !healthy[shard] {
			continue
		}
		st, err := r.clients[shard].SubmitJSON(ctx, j.canonical)
		if err != nil {
			continue
		}
		data, err := r.clients[shard].AwaitResult(ctx, st.ID)
		if err != nil {
			continue
		}
		return data, nil
	}
	return nil, ErrNoShards
}

// Cancel forwards a cancellation to the job's current shard.
func (r *Router) Cancel(ctx context.Context, id string) (bool, error) {
	j := r.lookup(id)
	if j == nil {
		return false, service.ErrUnknownJob
	}
	j.mu.Lock()
	if j.terminal || j.shard < 0 {
		j.mu.Unlock()
		return false, nil
	}
	shard, shardID := j.shard, j.shardID
	j.mu.Unlock()
	if err := r.clients[shard].Cancel(ctx, shardID); err != nil {
		return false, err
	}
	r.refresh(ctx, j)
	return true, nil
}

// ResultByHash serves the router's own view of the content-addressed
// store: a terminal done job with the hash, or any healthy shard that
// holds it.
func (r *Router) ResultByHash(ctx context.Context, hash string) ([]byte, bool) {
	r.mu.Lock()
	j := r.byHash[hash]
	r.mu.Unlock()
	if j != nil {
		j.mu.Lock()
		data := j.result
		j.mu.Unlock()
		if data != nil {
			return data, true
		}
	}
	return r.resultFromPeers(ctx, hash, -1)
}

// retireLocked enforces the bounded job table: beyond maxRetainedJobs,
// the oldest terminal jobs are dropped (r.mu held).
func (r *Router) retireLocked() {
	for len(r.jobs) > maxRetainedJobs {
		retired := false
		for i, j := range r.order {
			j.mu.Lock()
			t := j.terminal
			j.mu.Unlock()
			if !t {
				continue
			}
			r.order = append(r.order[:i], r.order[i+1:]...)
			delete(r.jobs, j.id)
			if r.byHash[j.hash] == j {
				delete(r.byHash, j.hash)
			}
			retired = true
			break
		}
		if !retired {
			return // everything is in flight; let the table grow
		}
	}
}

// RetryAfterHint estimates how long a shed client should wait, from
// the cluster's current saturation: in-flight jobs per healthy shard,
// clamped to [1, 60] seconds. Deeper backlog or fewer shards ⇒ longer
// hint, so a rejected herd spreads instead of stampeding.
func (r *Router) RetryAfterHint() int {
	r.mu.Lock()
	inflight := 0
	for _, j := range r.jobs {
		j.mu.Lock()
		if !j.terminal {
			inflight++
		}
		j.mu.Unlock()
	}
	r.mu.Unlock()
	shards := r.HealthyShards()
	if shards < 1 {
		shards = 1
	}
	hint := int(math.Ceil(float64(inflight) / float64(shards) / 4))
	if hint < 1 {
		hint = 1
	}
	if hint > 60 {
		hint = 60
	}
	return hint
}

// Failovers returns the total number of job re-placements performed.
func (r *Router) Failovers() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nFailovers
}
