package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mac3d/internal/obs"
	"mac3d/internal/stats"
)

// RunFunc executes one spec and returns its report bytes. The service
// runs specs through mac3d.Run/Compare/RunNUMA by default; tests and
// chaos injectors substitute or wrap it.
type RunFunc func(Spec) ([]byte, error)

// Config parameterizes a Service.
type Config struct {
	// Workers is the worker-pool size — the number of simulations
	// that may run concurrently (default 4).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full
	// queue rejects submissions with ErrQueueFull — the HTTP layer's
	// 429 backpressure (default 64).
	QueueDepth int
	// CacheBytes is the result cache's byte budget (default 64 MiB;
	// negative disables caching).
	CacheBytes int64
	// JobTimeout bounds one job's execution; a job running longer is
	// failed and its eventual result discarded (default 10 minutes;
	// negative disables the timeout).
	JobTimeout time.Duration
	// RetainJobs bounds how many terminal job records are kept for
	// status/result queries before the oldest are forgotten
	// (default 4096).
	RetainJobs int
	// JournalDir enables the crash-safe job journal: every lifecycle
	// transition is logged to an append-only CRC-checked WAL in this
	// directory and done results are stored content-addressed next to
	// it. A service restarted on the same directory replays the log,
	// restores completed results and re-queues interrupted jobs.
	// Empty disables journaling.
	JournalDir string
	// JournalSync fsyncs every journal append and result-store write.
	// Off by default: the page cache survives a killed process, and
	// recovery treats a lost tail exactly like a slightly earlier
	// crash. Turn it on for power-loss durability.
	JournalSync bool
	// WrapRunner, when set, wraps the spec executor — the hook the
	// svcchaos injector uses to kill or stall workers mid-run.
	WrapRunner func(RunFunc) RunFunc
	// ResultLookup, when set, is consulted by a worker just before it
	// executes a job whose result is in neither the cache nor the
	// journal's on-disk store. It is the cluster read-through hook: a
	// shard queries its peers' content-addressed result stores
	// (cluster.PeerReadThrough), and because equal spec hash means
	// byte-identical report, any hit is exactly the bytes this shard
	// would have computed. The lookup runs outside the service mutex
	// and must fail fast when peers are unreachable.
	ResultLookup func(hash string) ([]byte, bool)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 4096
	}
	return c
}

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors of the submission and query paths.
var (
	// ErrQueueFull rejects a submission because the bounded queue is
	// full — the caller should back off and retry (HTTP 429).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrDraining rejects a submission because the service is
	// shutting down (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrUnknownJob means the job ID was never seen or its record
	// has been retired (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrNotFinished means the job has no result yet (HTTP 409).
	ErrNotFinished = errors.New("service: job not finished")
	// ErrWorkerKilled is returned by a chaos-wrapped runner to
	// simulate the worker dying mid-run: the job is NOT finalized —
	// it stays "running" with no terminal journal record, exactly the
	// state a real crash leaves behind — and only a restart's journal
	// replay re-queues it.
	ErrWorkerKilled = errors.New("service: worker killed (chaos)")
)

// job is the service-side record of one submission.
type job struct {
	id   string
	hash string
	spec Spec

	state     State
	cached    bool
	coalesced bool
	recovered bool
	errMsg    string
	result    []byte

	submitted time.Time
	started   time.Time
	finished  time.Time

	// primary is set on coalesced jobs: this job rides primary's
	// execution. followers is the inverse edge on the primary.
	primary   *job
	followers []*job

	// cancelRun interrupts the worker running this job.
	cancelRun context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// JobStatus is the requester-visible snapshot of a job.
type JobStatus struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	Kind Kind   `json:"kind"`
	// State is queued, running, done, failed or canceled.
	State State `json:"state"`
	// Cached marks a job served directly from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a job that attached to an identical in-flight
	// job instead of executing on its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Recovered marks a job restored or re-queued from the journal
	// after a restart.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Service is the simulation-as-a-service engine: a bounded job queue
// feeding a worker pool, with single-flight coalescing of identical
// specs, a content-addressed result cache and an optional crash-safe
// job journal. All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *resultCache
	reg     *obs.Registry
	journal *journal
	rec     *RecoveryReport

	// run executes one spec; tests substitute a fake and chaos wraps.
	run RunFunc
	// beforeWait, when set, runs on the worker after it starts a job's
	// run and before it waits for the result or a cancel; tests use it
	// to make both ready at once.
	beforeWait func(ctx context.Context, id string, result chan runOutcome)

	mu       sync.Mutex
	jobs     map[string]*job
	terminal []string // terminal job IDs in finish order, for retention
	inflight map[string]*job
	queue    chan *job
	seq      uint64
	draining bool
	killed   bool
	busy     int

	// counters under mu (exposed as registry funcs).
	nSubmitted uint64
	nCompleted uint64
	nFailed    uint64
	nCanceled  uint64
	nTimeout   uint64
	nRejected  uint64
	nCoalesced uint64
	nKilled    uint64
	nRecovered uint64
	nPeerHits  uint64

	queueWaitUs stats.Histogram
	runUs       stats.Histogram

	wg sync.WaitGroup
}

// New starts a service with cfg's worker pool, replaying cfg.JournalDir
// first when set. Stop it with Drain.
func New(cfg Config) (*Service, error) {
	return newWithRunner(cfg, execute)
}

// newWithRunner lets tests substitute the spec executor before the
// worker pool starts.
func newWithRunner(cfg Config, run RunFunc) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 || cfg.QueueDepth < 0 || cfg.RetainJobs < 0 {
		return nil, fmt.Errorf("service: negative Config value: %+v", cfg)
	}
	if cfg.WrapRunner != nil {
		run = cfg.WrapRunner(run)
	}
	s := &Service{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheBytes),
		reg:      obs.NewRegistry(),
		run:      run,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	s.registerMetrics()
	var requeue chan *job
	if cfg.JournalDir != "" {
		var err error
		requeue, err = s.recover(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	// The queue must hold every re-queued job even when there are more
	// of them than QueueDepth: recovery re-admits, it never re-rejects.
	s.queue = make(chan *job, cfg.QueueDepth+len(requeue))
	for len(requeue) > 0 {
		s.queue <- <-requeue
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover replays the journal in dir: completed results go back into
// the cache under their original job IDs, interrupted jobs are rebuilt
// and returned for re-queueing (with requeue records on the log), and
// the journal is re-opened for appending past any truncated damage.
func (s *Service) recover(dir string) (chan *job, error) {
	raw, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: reading journal: %w", err)
	}
	recs, damage := ParseJournal(raw)
	truncateAt := int64(-1)
	if damage != nil {
		truncateAt = damage.Offset
	}
	jr, err := openJournal(dir, s.cfg.JournalSync, truncateAt)
	if err != nil {
		return nil, err
	}
	s.journal = jr
	folded, order, rep := foldJournal(recs, damage, jr)

	now := time.Now()
	// Room for every replayed job: replay re-admits, it never rejects.
	requeue := make(chan *job, len(order))
	for _, id := range order {
		rj := folded[id]
		if n := jobSeq(rj.id); n > s.seq {
			s.seq = n
		}
		j := &job{
			id:        rj.id,
			hash:      rj.hash,
			state:     StateQueued,
			recovered: true,
			submitted: now,
			done:      make(chan struct{}),
		}
		s.jobs[j.id] = j
		if len(rj.spec) > 0 {
			if spec, err := ParseSpec(rj.spec); err == nil {
				j.spec = spec
			} else if !rj.terminal {
				// A live job whose recorded spec no longer parses (e.g.
				// written by an incompatible build) cannot be re-run.
				s.settleLocked(j, StateFailed, nil,
					fmt.Sprintf("service: recovered spec no longer parses: %v", err), now, false)
				rep.Completed++
				continue
			}
		}
		s.nRecovered++
		if rj.terminal {
			if rj.state == StateDone {
				s.cache.put(j.hash, rj.result)
			}
			s.settleLocked(j, rj.state, rj.result, rj.errMsg, now, false)
			rep.Completed++
			continue
		}
		// Live at crash time: admit it again. The restored cache (or the
		// on-disk store) may already hold its result, and identical
		// interrupted specs re-coalesce onto one execution.
		s.nSubmitted++
		s.admitLocked(j, Record{Op: OpRequeue, Job: j.id, Hash: j.hash}, requeue)
		if j.state.Terminal() {
			rep.Completed++
		} else {
			rep.Requeued++
		}
	}
	s.rec = &rep
	return requeue, nil
}

// Recovery returns the journal replay report of this instance, or nil
// when journaling is off.
func (s *Service) Recovery() *RecoveryReport { return s.rec }

// Registry exposes the service metrics (queue depth, worker
// occupancy, cache hit rate, job latency histograms) for the
// /v1/metrics endpoint and for embedding hosts.
func (s *Service) Registry() *obs.Registry { return s.reg }

func (s *Service) registerMetrics() {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	s.reg.Func("macd.queue.depth", func() float64 { return float64(len(s.queue)) })
	s.reg.Func("macd.queue.capacity", func() float64 { return float64(s.cfg.QueueDepth) })
	s.reg.Func("macd.workers.total", func() float64 { return float64(s.cfg.Workers) })
	s.reg.Func("macd.workers.busy", locked(func() float64 { return float64(s.busy) }))
	s.reg.Func("macd.jobs.submitted", locked(func() float64 { return float64(s.nSubmitted) }))
	s.reg.Func("macd.jobs.completed", locked(func() float64 { return float64(s.nCompleted) }))
	s.reg.Func("macd.jobs.failed", locked(func() float64 { return float64(s.nFailed) }))
	s.reg.Func("macd.jobs.canceled", locked(func() float64 { return float64(s.nCanceled) }))
	s.reg.Func("macd.jobs.timeout", locked(func() float64 { return float64(s.nTimeout) }))
	s.reg.Func("macd.jobs.rejected", locked(func() float64 { return float64(s.nRejected) }))
	s.reg.Func("macd.jobs.coalesced", locked(func() float64 { return float64(s.nCoalesced) }))
	s.reg.Func("macd.jobs.worker_killed", locked(func() float64 { return float64(s.nKilled) }))
	s.reg.Func("macd.jobs.recovered", locked(func() float64 { return float64(s.nRecovered) }))
	s.reg.Func("macd.jobs.peer_hits", locked(func() float64 { return float64(s.nPeerHits) }))
	s.reg.Func("macd.cache.hits", func() float64 { h, _, _, _, _ := s.cache.stats(); return float64(h) })
	s.reg.Func("macd.cache.misses", func() float64 { _, m, _, _, _ := s.cache.stats(); return float64(m) })
	s.reg.Func("macd.cache.evictions", func() float64 { _, _, e, _, _ := s.cache.stats(); return float64(e) })
	s.reg.Func("macd.cache.entries", func() float64 { _, _, _, n, _ := s.cache.stats(); return float64(n) })
	s.reg.Func("macd.cache.bytes", func() float64 { _, _, _, _, b := s.cache.stats(); return float64(b) })
	s.reg.Func("macd.cache.budget_bytes", func() float64 { return float64(s.cfg.CacheBytes) })
	for name, h := range map[string]*stats.Histogram{
		"macd.job.queue_wait_us": &s.queueWaitUs,
		"macd.job.run_us":        &s.runUs,
	} {
		h := h
		s.reg.Func(name+".count", locked(func() float64 { return float64(h.Count()) }))
		s.reg.Func(name+".mean", locked(func() float64 { return h.Mean() }))
		s.reg.Func(name+".p99", locked(func() float64 { return float64(h.Quantile(0.99)) }))
		s.reg.Func(name+".max", locked(func() float64 { return float64(h.Max()) }))
	}
}

// submitRecord renders a job's admission for the journal, carrying the
// canonical spec bytes replay needs to re-queue it.
func (s *Service) submitRecord(j *job) Record {
	rec := Record{Op: OpSubmit, Job: j.id, Hash: j.hash}
	if canon, err := j.spec.Canonical(); err == nil {
		rec.Spec = canon
	}
	return rec
}

// terminalRecord renders a terminal transition. For done jobs the
// result is stored content-addressed first, so the record's length+CRC
// promise is only written once the bytes are safely visible.
func (s *Service) terminalRecord(j *job, state State, data []byte, errMsg string) Record {
	rec := Record{Op: OpTerminal, Job: j.id, Hash: j.hash, State: state, Error: errMsg}
	if state == StateDone && s.journal != nil {
		crc, err := s.journal.writeResult(j.hash, data)
		if err == nil {
			rec.ResultLen = len(data)
			rec.ResultCRC = crc
		}
	}
	return rec
}

// Submit enqueues one parsed spec. Identical specs are deduplicated:
// a finished one is served from the cache (or the journal's on-disk
// result store) without executing, an in-flight one absorbs this
// submission as a follower. Returns ErrQueueFull under backpressure
// and ErrDraining during shutdown.
func (s *Service) Submit(spec Spec) (JobStatus, error) {
	hash, err := spec.Hash()
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j-%08d", s.seq),
		hash:      hash,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.nSubmitted++
	if !s.admitLocked(j, s.submitRecord(j), s.queue) {
		return JobStatus{}, ErrQueueFull
	}
	return s.statusLocked(j), nil
}

// admitLocked is the one admission path, for a fresh submission and a
// job replayed live from the journal alike. A stored result (the
// cache, then the journal's on-disk store) settles j at once as
// cached; an identical job in flight takes j as its follower;
// otherwise j joins queue. rec is j's admission record (submit, or
// requeue on replay) and precedes any terminal record. When queue is
// full, j is rejected: counted, unrecorded and forgotten.
func (s *Service) admitLocked(j *job, rec Record, queue chan<- *job) bool {
	data, hit := s.cache.get(j.hash)
	if !hit {
		// The on-disk store survives restarts and cache eviction, and
		// holds any result whose terminal record a crash cut off: the
		// bytes are complete (rename-visible) and deterministic.
		if stored, ok := s.journal.lookupResult(j.hash); ok {
			s.cache.put(j.hash, stored)
			data, hit = stored, true
		}
	}
	p := s.inflight[j.hash]
	switch {
	case hit:
		j.cached = true
	case p != nil:
		j.coalesced = true
		j.primary = p
		p.followers = append(p.followers, j)
		s.nCoalesced++
	default:
		select {
		case queue <- j:
			s.inflight[j.hash] = j
		default:
			s.nRejected++
			return false
		}
	}
	s.jobs[j.id] = j
	s.journal.append(rec)
	if hit {
		s.settleLocked(j, StateDone, data, "", j.submitted, true)
	}
	return true
}

// SubmitJSON parses and submits a raw JSON spec (the HTTP body path).
func (s *Service) SubmitJSON(data []byte) (JobStatus, error) {
	spec, err := ParseSpec(data)
	if err != nil {
		return JobStatus{}, err
	}
	return s.Submit(spec)
}

// worker drains the queue until Drain closes it.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runOutcome is what one spec run returns.
type runOutcome struct {
	data []byte
	err  error
}

func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued; already finalized.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	}
	j.cancelRun = cancel
	s.busy++
	s.queueWaitUs.Observe(uint64(j.started.Sub(j.submitted).Microseconds()))
	s.journal.append(Record{Op: OpStart, Job: j.id, Hash: j.hash})
	s.mu.Unlock()
	defer cancel()

	// Cross-instance read-through: a peer's content-addressed result
	// store may already hold this spec's bytes (equal hash means a
	// byte-identical report), so consult it before paying for the
	// simulation. The lookup fails fast when peers are down.
	var o runOutcome
	peerHit := false
	if lookup := s.cfg.ResultLookup; lookup != nil {
		o.data, peerHit = lookup(j.hash)
	}
	if !peerHit {
		ch := make(chan runOutcome, 1)
		go func() {
			data, err := s.run(j.spec)
			ch <- runOutcome{data, err}
		}()
		if s.beforeWait != nil {
			s.beforeWait(ctx, j.id, ch)
		}
		select {
		case o = <-ch:
		case <-ctx.Done():
			// The simulation goroutine cannot be interrupted mid-cycle;
			// it finishes in the background and its result is discarded
			// (the buffered channel lets it exit). The worker moves on.
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy--
	// A cancel or deadline decides the outcome even when the result is
	// ready too: select picks at random between ready cases, and an
	// accepted cancel must end the job canceled.
	switch {
	case peerHit:
		s.nPeerHits++
		s.finalizeLocked(j, StateDone, o.data, "")
	case errors.Is(o.err, ErrWorkerKilled):
		// Chaos killed this worker mid-run: leave the job exactly as a
		// crash would — running, un-finalized, no terminal journal
		// record. Only a restart's replay re-queues it.
		s.nKilled++
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.nTimeout++
		s.finalizeLocked(j, StateFailed, nil,
			fmt.Sprintf("service: job exceeded the %s timeout", s.cfg.JobTimeout))
	case ctx.Err() != nil:
		s.finalizeLocked(j, StateCanceled, nil, "service: job canceled")
	case o.err != nil:
		s.finalizeLocked(j, StateFailed, nil, o.err.Error())
	default:
		s.finalizeLocked(j, StateDone, o.data, "")
	}
}

// finalizeLocked moves a job (and its followers) to a terminal state.
func (s *Service) finalizeLocked(j *job, state State, data []byte, errMsg string) {
	if j.state.Terminal() {
		return
	}
	now := time.Now()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	if state == StateDone {
		s.cache.put(j.hash, data)
	}
	if !j.started.IsZero() {
		s.runUs.Observe(uint64(now.Sub(j.started).Microseconds()))
	}
	s.settleLocked(j, state, data, errMsg, now, true)
	for _, f := range j.followers {
		s.settleLocked(f, state, data, errMsg, now, true)
	}
	j.followers = nil
}

// settleLocked is the one terminal transition: it gives j its final
// state, result and finish time, releases its waiters, retains its
// record (forgetting the oldest beyond RetainJobs), counts its outcome
// and, when record is set, journals it. Replay settles jobs whose
// terminal record is already on the log (or, for a spec that no longer
// parses, never was) without writing one.
func (s *Service) settleLocked(j *job, state State, data []byte, errMsg string, now time.Time, record bool) {
	j.state = state
	j.result = data
	j.errMsg = errMsg
	j.finished = now
	close(j.done)
	s.terminal = append(s.terminal, j.id)
	for len(s.terminal) > s.cfg.RetainJobs {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	switch state {
	case StateDone:
		s.nCompleted++
	case StateFailed:
		s.nFailed++
	default:
		s.nCanceled++
	}
	if record {
		s.journal.append(s.terminalRecord(j, state, data, errMsg))
	}
}

// statusLocked renders a requester-visible snapshot.
func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Hash:        j.hash,
		Kind:        j.spec.Kind,
		State:       j.state,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Recovered:   j.recovered,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
	}
	// A pending follower mirrors its primary's progress.
	if j.primary != nil && !j.state.Terminal() {
		st.State = j.primary.state
		if !j.primary.started.IsZero() {
			t := j.primary.started
			st.StartedAt = &t
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Job returns the status of one job.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// Jobs returns a snapshot of every retained job, newest first.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	s.mu.Unlock()
	// Newest first by ID: IDs are zero-padded sequence numbers.
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Result returns the stored report bytes of a finished job. It fails
// with ErrNotFinished while the job is pending and with the job's own
// error when it failed or was canceled.
func (s *Service) Result(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	switch {
	case j.state == StateDone:
		return j.result, nil
	case j.state.Terminal():
		return nil, errors.New(j.errMsg)
	default:
		return nil, ErrNotFinished
	}
}

// ResultByHash serves the content-addressed result store by spec hash:
// the cache first, then the journal's on-disk store. It is the peer
// read-through surface of a cluster shard (GET /v1/results/{hash}) —
// a hit is the deterministic report of the spec hashing to hash, so a
// peer can serve it as its own.
func (s *Service) ResultByHash(hash string) ([]byte, bool) {
	if data, ok := s.cache.get(hash); ok {
		return data, true
	}
	if data, ok := s.journal.lookupResult(hash); ok {
		s.cache.put(hash, data)
		return data, true
	}
	return nil, false
}

// RetryAfterHint estimates, in whole seconds, how long a rejected
// submitter should wait before retrying: the queued backlog divided by
// the worker count (a drain-rate proxy), clamped to [1, 60]. It is the
// value served in the Retry-After header on 429/503 responses.
func (s *Service) RetryAfterHint() int {
	s.mu.Lock()
	depth := len(s.queue)
	workers := s.cfg.Workers
	s.mu.Unlock()
	if workers < 1 {
		workers = 1
	}
	secs := (depth + workers - 1) / workers
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// Wait blocks until the job reaches a terminal state (or ctx ends)
// and returns its final status.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// AwaitResult waits for the job and returns its stored report bytes.
func (s *Service) AwaitResult(ctx context.Context, id string) ([]byte, error) {
	if _, err := s.Wait(ctx, id); err != nil {
		return nil, err
	}
	return s.Result(id)
}

// Cancel requests cancellation. A queued job is finalized immediately;
// a running one has its worker interrupted (the simulation's eventual
// result is discarded). Canceling a job with coalesced followers
// cancels the followers too; canceling a follower detaches only that
// follower. Returns false when the job is already terminal.
func (s *Service) Cancel(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false, ErrUnknownJob
	}
	if j.state.Terminal() {
		return false, nil
	}
	if p := j.primary; p != nil {
		// Detach the follower and settle it alone.
		for i, f := range p.followers {
			if f == j {
				p.followers = append(p.followers[:i], p.followers[i+1:]...)
				break
			}
		}
		s.settleLocked(j, StateCanceled, nil, "service: job canceled", time.Now(), true)
		return true, nil
	}
	if j.state == StateQueued {
		s.finalizeLocked(j, StateCanceled, nil, "service: job canceled")
		return true, nil
	}
	// Running: interrupt the worker; it finalizes as canceled.
	if j.cancelRun != nil {
		j.cancelRun()
	}
	return true, nil
}

// Drain stops accepting submissions, lets queued and running jobs
// finish, and returns when the pool is idle (or ctx expires — the
// workers then keep draining in the background). On the idle path the
// journal is synced and closed; a sticky journal write error surfaces
// here.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	var journalErr error
	go func() {
		s.wg.Wait()
		// Workers are idle: every terminal record is written; seal the
		// log. (After Kill the journal is already closed; this no-ops.)
		journalErr = s.journal.close(false)
		close(idle)
	}()
	select {
	case <-idle:
		if journalErr != nil {
			return fmt.Errorf("service: journal: %w", journalErr)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Kill simulates a crash (kill -9) for tests and the service-chaos
// harness: submissions are rejected, the worker queue is closed, and —
// critically — the journal and result store are cut immediately, so
// any job still executing can no longer write post-crash state to
// disk, even though its goroutine lingers in-process. The on-disk
// journal is left exactly as a real crash would leave it; start a new
// Service on the same JournalDir to recover.
func (s *Service) Kill() {
	s.mu.Lock()
	if !s.killed {
		s.killed = true
		if !s.draining {
			s.draining = true
			close(s.queue)
		}
	}
	s.mu.Unlock()
	s.journal.close(true)
}
