package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mac3d"
	"mac3d/internal/cluster"
	"mac3d/internal/service"
)

// The macd-serve workload: an open loop at one fixed seeded arrival rate
// into a cluster router in front of two single-worker journaled shards,
// all in this process on loopback HTTP.
const (
	serveShards = 2
	// serveRate is the offered load in jobs per second.
	serveRate = 80.0
	// serveRepeat is the share of arrivals that resubmit an earlier spec.
	// With it the two shard workers are under a tenth busy on the
	// two-core reference host. Busier workers there, with the garbage
	// collector, often take both cores at once; request handlers then
	// wait for a core, and the latency figures follow the host's load
	// rather than the service. It also puts job_p50_ms well inside the
	// cache reads, not on the edge between reads and simulations.
	serveRepeat = 0.9
	// serveWarmup is the unmeasured stretch at the start of the schedule.
	serveWarmup = 1500 * time.Millisecond
	// servePoll is the status-poll interval of an outstanding job.
	servePoll = 3 * time.Millisecond
	// serveSLO is the fixed latency limit slo_miss_frac counts against.
	serveSLO = 250 * time.Millisecond
	// serveInjectDelay is the runner delay of the injected-slowdown check.
	serveInjectDelay = 50 * time.Millisecond
)

// serveClients is the number of load-generator goroutines: nproc on the
// two-core reference host, fewer on a smaller one.
func serveClients() int { return min(runtime.NumCPU(), 2) }

// specTemplates is the fixed rotation new arrivals draw their job from:
// tiny-scale run, compare and numa specs that together cover all five
// designs. Each takes 5–30 ms alone on the reference host; the slow
// tiny combinations (numa with raw, warp or memcache: 0.1–1 s) are left
// out so that a few of them cannot set the tail latency by themselves.
func specTemplates() []service.Spec {
	run := func(k string, d mac3d.Design) service.Spec {
		return service.Spec{Kind: service.KindRun, Run: &mac3d.RunOptions{Workload: k, Design: d}}
	}
	numa := func(k string, d mac3d.Design) service.Spec {
		return service.Spec{Kind: service.KindNUMA, NUMA: &mac3d.NUMAOptions{Workload: k, Design: d}}
	}
	compare := func(k string) service.Spec {
		return service.Spec{Kind: service.KindCompare, Run: &mac3d.RunOptions{Workload: k}}
	}
	return []service.Spec{
		run("sg", mac3d.DesignMAC), run("sg", mac3d.DesignRaw), run("sg", mac3d.DesignMemCache),
		run("bfs", mac3d.DesignMSHR), run("bfs", mac3d.DesignWarp),
		run("sg-seq", mac3d.DesignMAC), run("sg-seq", mac3d.DesignMSHR), run("sg-seq", mac3d.DesignMemCache),
		compare("sg-seq"), compare("sg"),
		numa("sg-seq", mac3d.DesignMAC), numa("sg-seq", mac3d.DesignMSHR), numa("sg", mac3d.DesignMAC),
	}
}

// arrival is one scheduled job submission.
type arrival struct {
	due  time.Duration // offset from the schedule start
	key  int           // index of the distinct spec
	kind service.Kind
	spec []byte
	hash string
}

// schedule draws the open-loop arrivals of one run from seed: rate ×
// length arrivals, the i-th at a uniformly drawn point of the i-th slot
// of width 1/rate, so the offered rate is fixed and bursts stay short. A
// fixed serveRepeat share of them resubmits a uniformly chosen earlier
// spec; the rest take the next template with a fresh simulation seed.
func schedule(seed uint64, rate float64, length time.Duration) ([]arrival, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tpls := specTemplates()
	var out []arrival
	var distinct []arrival
	for i := 0; i < int(rate*length.Seconds()); i++ {
		due := time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
		if float64(len(distinct)) >= (1-serveRepeat)*float64(i+1) {
			a := distinct[rng.Intn(len(distinct))]
			a.due = due
			out = append(out, a)
			continue
		}
		spec := tpls[len(distinct)%len(tpls)]
		simSeed := rng.Uint64()>>1 | 1
		if spec.Run != nil {
			o := *spec.Run
			o.Seed = simSeed
			spec.Run = &o
		} else {
			o := *spec.NUMA
			o.Seed = simSeed
			spec.NUMA = &o
		}
		data, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		parsed, err := service.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		hash, err := parsed.Hash()
		if err != nil {
			return nil, err
		}
		a := arrival{due: due, key: len(distinct), kind: spec.Kind, spec: data, hash: hash}
		distinct = append(distinct, a)
		out = append(out, a)
	}
	return out, nil
}

// interval is a host-time span seen by one of the benchmark's hooks.
type interval struct{ start, end time.Time }

// serveCluster is the in-process deployment under test.
type serveCluster struct {
	shards   []*service.Service
	servers  []*http.Server
	router   *cluster.Router
	front    *http.Server
	client   *service.Client
	runDelay time.Duration

	mu     sync.Mutex
	runs   map[string][]interval // spec hash -> runner executions
	admits map[string]interval   // spec hash -> shard-side admission
}

// startCluster brings up the shards (journal on, one worker each), the
// router and the front server. With traced set, every shard's handler is
// wrapped to time admission.
func startCluster(dir string, seed uint64, traced bool, runDelay time.Duration) (*serveCluster, error) {
	c := &serveCluster{runDelay: runDelay, runs: map[string][]interval{}, admits: map[string]interval{}}
	var urls []string
	for i := 0; i < serveShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		svc, err := service.New(service.Config{
			Workers:    1,
			JournalDir: filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			WrapRunner: c.wrapRunner,
		})
		if err != nil {
			ln.Close()
			c.stop()
			return nil, err
		}
		h := service.Handler(svc)
		if traced {
			h = c.timeAdmission(h)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		c.shards = append(c.shards, svc)
		c.servers = append(c.servers, srv)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	router, err := cluster.NewRouter(cluster.Config{Shards: urls, Seed: seed})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.router = router
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	c.front = &http.Server{Handler: cluster.Handler(router)}
	go c.front.Serve(ln)
	c.client = &service.Client{
		BaseURL:        "http://" + ln.Addr().String(),
		HTTPClient:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		AttemptTimeout: 30 * time.Second,
	}
	return c, nil
}

// stop shuts everything down and waits for the shard workers to exit.
func (c *serveCluster) stop() {
	if c.router != nil {
		c.router.Close()
	}
	if c.front != nil {
		c.front.Close()
	}
	if c.client != nil {
		c.client.HTTPClient.CloseIdleConnections()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, svc := range c.shards {
		// Every job is terminal by now; a timeout would only mean a
		// worker outlives the run, and the process exits after it.
		_ = svc.Drain(ctx)
	}
	http.DefaultClient.CloseIdleConnections()
}

// wrapRunner is the service.Config.WrapRunner hook: it times each
// execution (simulation plus JSON encode).
func (c *serveCluster) wrapRunner(run service.RunFunc) service.RunFunc {
	return func(s service.Spec) ([]byte, error) {
		start := time.Now()
		if c.runDelay > 0 {
			time.Sleep(c.runDelay)
		}
		data, err := run(s)
		end := time.Now()
		hash, _ := s.Hash() // the spec was hashed on admission, so this cannot fail
		c.mu.Lock()
		c.runs[hash] = append(c.runs[hash], interval{start, end})
		c.mu.Unlock()
		return data, err
	}
}

// timeAdmission wraps a shard handler to time job submissions.
func (c *serveCluster) timeAdmission(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if spec, err := service.ParseSpec(body); err == nil {
			if hash, err := spec.Hash(); err == nil {
				c.mu.Lock()
				c.admits[hash] = interval{start, end}
				c.mu.Unlock()
			}
		}
	})
}

// jobRec is the client-side record of one arrival.
type jobRec struct {
	arrival
	index                      int
	issued, submitted, fetched time.Time
	done                       time.Time
	id                         string
	cached, executor           bool
	result                     []byte
	err                        error
}

// drive plays one goroutine's share of the schedule as an open loop: it
// submits each job when due whatever is outstanding, and polls the
// outstanding ones in between.
func drive(ctx context.Context, c *service.Client, jobs []*jobRec, start time.Time) {
	type pending struct {
		j    *jobRec
		next time.Time
	}
	var inflight []pending
	fetch := func(j *jobRec) {
		j.fetched = time.Now()
		j.result, j.err = c.Result(ctx, j.id)
		j.done = time.Now()
	}
	next := 0
	for next < len(jobs) || len(inflight) > 0 {
		pi := -1
		for i := range inflight {
			if pi < 0 || inflight[i].next.Before(inflight[pi].next) {
				pi = i
			}
		}
		var wake time.Time
		if next < len(jobs) {
			wake = start.Add(jobs[next].due)
		}
		if pi >= 0 && (wake.IsZero() || inflight[pi].next.Before(wake)) {
			wake = inflight[pi].next
		} else {
			pi = -1
		}
		if d := time.Until(wake); d > 0 {
			time.Sleep(d)
		}
		if pi < 0 {
			j := jobs[next]
			next++
			j.issued = time.Now()
			st, err := c.SubmitJSON(ctx, j.spec)
			j.submitted = time.Now()
			switch {
			case err != nil:
				j.err, j.done = err, j.submitted
			case st.State == service.StateDone:
				j.id, j.cached = st.ID, st.Cached
				fetch(j)
			case st.State.Terminal():
				j.err, j.done = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error), j.submitted
			default:
				j.id, j.executor = st.ID, !st.Coalesced
				inflight = append(inflight, pending{j, time.Now().Add(servePoll)})
			}
			continue
		}
		p := inflight[pi]
		st, err := c.Job(ctx, p.j.id)
		switch {
		case err == nil && !st.State.Terminal():
			inflight[pi].next = time.Now().Add(servePoll)
			continue
		case err != nil:
			p.j.err, p.j.done = err, time.Now()
		case st.State == service.StateDone:
			fetch(p.j)
		default:
			p.j.err, p.j.done = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error), time.Now()
		}
		inflight = append(inflight[:pi], inflight[pi+1:]...)
	}
}

// serveSession is one run of the schedule against a fresh cluster.
type serveSession struct {
	jobs    []*jobRec
	start   time.Time
	end     time.Time
	alloc   uint64
	cluster *serveCluster
	// shardJobs is every shard's job table after the run, by spec hash
	// (the executed job when a hash has several).
	shardJobs  map[string]service.JobStatus
	unfinished int
	// warmup is the unmeasured stretch at the start of the schedule.
	warmup time.Duration
}

// session starts a cluster and plays the schedule against it.
func session(arrivals []arrival, seed uint64, traced bool, runDelay time.Duration) (*serveSession, []float64, error) {
	tmp := filepath.Join(benchDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	// Setup is repeated setupReps times; the last cluster serves the run.
	var setups []float64
	var c *serveCluster
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.stop()
		}
		dir, err := os.MkdirTemp(tmp, "macd-serve-")
		if err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, dir)
		runtime.GC() // so a collection of earlier garbage does not land inside the timing
		t0 := time.Now()
		if c, err = startCluster(dir, seed, traced, runDelay); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()

	s := &serveSession{cluster: c, warmup: serveWarmup}
	for i, a := range arrivals {
		s.jobs = append(s.jobs, &jobRec{arrival: a, index: i})
	}
	clients := serveClients()
	shares := make([][]*jobRec, clients)
	for i, j := range s.jobs {
		shares[i%clients] = append(shares[i%clients], j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	before := readMem()
	s.start = time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, share := range shares {
		wg.Add(1)
		go func(share []*jobRec) {
			defer wg.Done()
			drive(ctx, c.client, share, s.start)
		}(share)
	}
	wg.Wait()
	s.end = time.Now()
	s.alloc = readMem().bytes - before.bytes
	s.shardJobs = map[string]service.JobStatus{}
	for _, svc := range c.shards {
		for _, st := range svc.Jobs() {
			if !st.State.Terminal() {
				s.unfinished++
			}
			if prev, ok := s.shardJobs[st.Hash]; !ok || prev.StartedAt == nil {
				s.shardJobs[st.Hash] = st
			}
		}
	}
	return s, setups, nil
}

// simSummary is what one result report says about the simulation.
type simSummary struct {
	cycles     float64
	latencies  []float64
	efficiency float64
}

func summarize(kind service.Kind, data []byte) (simSummary, error) {
	var s simSummary
	switch kind {
	case service.KindRun:
		var r mac3d.RunReport
		if err := json.Unmarshal(data, &r); err != nil {
			return s, err
		}
		s = simSummary{float64(r.Cycles), []float64{r.AvgLatencyCycles}, r.CoalescingEfficiency}
	case service.KindCompare:
		var r mac3d.CompareReport
		if err := json.Unmarshal(data, &r); err != nil {
			return s, err
		}
		s = simSummary{float64(r.With.Cycles + r.Without.Cycles),
			[]float64{r.With.AvgLatencyCycles, r.Without.AvgLatencyCycles}, r.CoalescingEfficiency}
	case service.KindNUMA:
		var r mac3d.NUMAReport
		if err := json.Unmarshal(data, &r); err != nil {
			return s, err
		}
		var effs []float64
		for _, n := range r.PerNode {
			effs = append(effs, n.CoalescingEfficiency)
		}
		s = simSummary{float64(r.Cycles), []float64{r.AvgLatencyCycles}, mean(effs)}
	default:
		return s, fmt.Errorf("unknown job kind %q", kind)
	}
	if s.cycles == 0 {
		return s, errors.New("report simulated 0 cycles")
	}
	return s, nil
}

// measured reports whether j lies past the warm-up.
func (s *serveSession) measured(j *jobRec) bool { return j.due >= s.warmup }

// latency is submit→result measured from when the job was due.
func (s *serveSession) latency(j *jobRec) time.Duration { return j.done.Sub(s.start.Add(j.due)) }

// lag is how late the generator issued the job against its schedule.
func (s *serveSession) lag(j *jobRec) time.Duration { return j.issued.Sub(s.start.Add(j.due)) }

// check verifies the session's outputs and counts failed jobs into o.
func (s *serveSession) check(o *outcome, log io.Writer) map[int]simSummary {
	first := map[int]*jobRec{}
	sums := map[int]simSummary{}
	for _, j := range s.jobs {
		o.attempted++
		if j.err != nil {
			o.fail(log, "job %d (%s): %v", j.index, j.kind, j.err)
			continue
		}
		f, ok := first[j.key]
		if !ok {
			sum, err := summarize(j.kind, j.result)
			if err != nil {
				o.fail(log, "job %d (%s): result: %v", j.index, j.kind, err)
				continue
			}
			first[j.key], sums[j.key] = j, sum
			continue
		}
		if !bytes.Equal(f.result, j.result) {
			o.fail(log, "job %d repeats job %d's spec but its result differs", j.index, f.index)
		}
	}
	c := s.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	for hash, runs := range c.runs {
		if len(runs) != 1 {
			o.fail(log, "spec %.12s executed %d times", hash, len(runs))
		}
	}
	if s.unfinished > 0 {
		o.fail(log, "%d shard jobs never reached a terminal state", s.unfinished)
	}
	return sums
}

// endToEnd computes the session's end-to-end metrics into o.
func (s *serveSession) endToEnd(o *outcome, sums map[int]simSummary) (p50 float64) {
	var lat []float64
	misses, n := 0, 0
	var last time.Time
	for _, j := range s.jobs {
		if !s.measured(j) {
			continue
		}
		n++
		if j.err != nil {
			misses++
			continue
		}
		l := s.latency(j)
		lat = append(lat, float64(l.Nanoseconds())/1e6)
		if l > serveSLO {
			misses++
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	var cycles float64
	var lats, effs []float64
	for _, sum := range sums {
		cycles += sum.cycles
		lats = append(lats, sum.latencies...)
		effs = append(effs, sum.efficiency)
	}
	var runTime time.Duration
	s.cluster.mu.Lock()
	for _, runs := range s.cluster.runs {
		for _, r := range runs {
			runTime += r.end.Sub(r.start)
		}
	}
	s.cluster.mu.Unlock()
	window := last.Sub(s.start.Add(s.warmup))
	v := o.values
	v["wall_s"] = s.end.Sub(s.start).Seconds()
	v["host_alloc_mb"] = float64(s.alloc) / 1e6
	v["sim_cycles"] = cycles
	v["sim_cycles_per_s"] = ratio(cycles, runTime.Seconds())
	v["mem_latency_cycles"] = mean(lats)
	v["coalescing_eff"] = mean(effs)
	v["job_p50_ms"] = median(lat)
	t, q := tail(lat)
	v["job_p99_ms"] = t
	v["jobs_per_s"] = ratio(float64(len(lat)), window.Seconds())
	o.notes["job_p50_ms"] = fmt.Sprintf("n=%d measured jobs, from due time", len(lat))
	o.notes["job_p99_ms"] = fmt.Sprintf("%s of n=%d (highest percentile with >=%d samples beyond)", tailLabel(q), len(lat), tailRule)
	o.notes["jobs_per_s"] = fmt.Sprintf("offered %.0f/s; slo_miss_frac=%.4f (limit %s); worker busy %.0f%%",
		serveRate, ratio(float64(misses), float64(n)), serveSLO,
		100*ratio(runTime.Seconds(), s.end.Sub(s.start).Seconds()*serveShards))
	o.notes["sim_cycles"] = fmt.Sprintf("over %d distinct specs", len(sums))
	return median(lat)
}

// runServe runs the macd-serve workload.
func runServe(cfg runConfig, log io.Writer) (*outcome, error) {
	o := newOutcome()
	arrivals, err := schedule(cfg.seed, serveRate, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return nil, errors.New("empty schedule")
	}
	s, setups, err := session(arrivals, cfg.seed, false, 0)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = median(setups)
	sums := s.check(o, log)
	untracedP50 := s.endToEnd(o, sums)
	if !cfg.trace {
		return o, nil
	}
	delay := time.Duration(0)
	if cfg.inject == "service" {
		delay = serveInjectDelay
	}
	ts, _, err := session(arrivals, cfg.seed, true, delay)
	if err != nil {
		return nil, err
	}
	ts.check(o, log)
	tracedP50 := ts.endToEnd(newOutcome(), sums)
	ts.layers(o)
	o.values["trace.overhead_frac"] = ratio(tracedP50, untracedP50) - 1
	o.notes["trace.overhead_frac"] = fmt.Sprintf("traced job_p50 %.3fms over untraced %.3fms", tracedP50, untracedP50)
	return o, nil
}

// layers builds the traced session's spans and per-layer metrics.
func (s *serveSession) layers(o *outcome) {
	tr := &tracer{}
	c := s.cluster
	c.mu.Lock()
	defer c.mu.Unlock()
	var admit, queue, run, finalize, fetch, forward, lag []float64
	var rootTotal, glue time.Duration
	hits, rejects, n := 0, 0, 0
	for _, j := range s.jobs {
		if !s.measured(j) {
			continue
		}
		n++
		if errors.Is(j.err, service.ErrQueueFull) || errors.Is(j.err, service.ErrDraining) {
			rejects++
		}
		if j.err != nil {
			continue
		}
		if j.cached {
			hits++
		}
		id := fmt.Sprintf("%s#%d", j.id, j.index)
		due := s.start.Add(j.due)
		root := span{Name: "job " + string(j.kind), Layer: "job", ID: id, Parent: -1, Start: due, End: j.done}
		submit := span{Name: "submit", Layer: "cluster", ID: id, Start: j.issued, End: j.submitted}
		children := []span{
			{Name: "lag", Layer: "loadgen", ID: id, Start: due, End: j.issued},
			submit,
			{Name: "fetch", Layer: "service.fetch", ID: id, Start: j.fetched, End: j.done},
		}
		lag = append(lag, float64(s.lag(j).Nanoseconds())/1e6)
		fetch = append(fetch, float64(j.done.Sub(j.fetched).Nanoseconds())/1e3)
		var admitted []span
		if a, ok := c.admits[j.hash]; ok && j.executor {
			admitSpan := span{Name: "admit", Layer: "service.admit", ID: id, Start: a.start, End: a.end}
			children = append(children, admitSpan)
			admitted = append(admitted, admitSpan)
			admit = append(admit, float64(a.end.Sub(a.start).Nanoseconds())/1e3)
		}
		fw := selfTime(submit, admitted)
		o.self["cluster"] += fw
		if len(admitted) > 0 {
			forward = append(forward, float64(fw.Nanoseconds())/1e3)
		}
		// A job that coalesced onto an in-flight twin waits on the twin's
		// execution: it gets the shard's spans too, but only the executing
		// job counts toward the service metrics.
		if runs := c.runs[j.hash]; len(runs) == 1 && !j.cached {
			r := runs[0]
			children = append(children, span{Name: "run", Layer: "service.run", ID: id, Start: r.start, End: r.end})
			if j.executor {
				run = append(run, float64(r.end.Sub(r.start).Nanoseconds())/1e6)
			}
			if st, ok := s.shardJobs[j.hash]; ok && st.StartedAt != nil && st.FinishedAt != nil {
				children = append(children,
					span{Name: "queue", Layer: "service.queue", ID: id, Start: st.SubmittedAt, End: *st.StartedAt},
					span{Name: "finalize", Layer: "service.finalize", ID: id, Start: r.end, End: *st.FinishedAt})
				if j.executor {
					queue = append(queue, float64(st.StartedAt.Sub(st.SubmittedAt).Nanoseconds())/1e6)
					finalize = append(finalize, float64(st.FinishedAt.Sub(r.end).Nanoseconds())/1e3)
				}
			}
		}
		rootTotal += root.dur()
		glue += selfTime(root, children)
		ri := tr.add(root)
		for _, ch := range children {
			ch.Parent = ri
			tr.add(ch)
			if ch.Layer != "cluster" {
				// The part of the span inside this job.
				o.self[ch.Layer] += root.dur() - selfTime(root, []span{ch})
			}
		}
	}
	o.self["glue"] = glue
	forwardErrs, _ := c.router.Registry().Get("cluster.forward_errors")
	submits, _ := c.router.Registry().Get("cluster.submits")
	v := o.values
	v["service.admit_us"] = mean(admit)
	v["service.queue_wait_ms"] = mean(queue)
	v["service.run_ms"] = mean(run)
	v["service.finalize_us"] = mean(finalize)
	v["service.fetch_us"] = mean(fetch)
	v["service.cache_hit_frac"] = ratio(float64(hits), float64(n))
	v["service.reject_frac"] = ratio(float64(rejects), float64(n))
	v["cluster.forward_us"] = mean(forward)
	v["cluster.retry_frac"] = ratio(forwardErrs, submits)
	v["cluster.failovers"] = float64(c.router.Failovers())
	v["loadgen.lag_ms"] = mean(lag)
	v["glue.frac"] = ratio(glue.Seconds(), rootTotal.Seconds())
	o.notes["service.run_ms"] = fmt.Sprintf("n=%d executions", len(run))
	o.notes["loadgen.lag_ms"] = fmt.Sprintf("mean; p99 %.3fms", percentile(lag, 0.99))
	o.notes["service.finalize_us"] = "runner end to FinishedAt; the journal append follows FinishedAt"
	o.spans = tr.spans
}
