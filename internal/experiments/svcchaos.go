package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mac3d"
	"mac3d/internal/service"
	"mac3d/internal/stats"
	"mac3d/internal/svcchaos"
)

// svcChaosProfile is the adversity the abl-svcchaos sweep runs under:
// workers killed mid-run (abandoning jobs un-finalized, as a real
// crash would), slow-shard stalls, HTTP request delays, and dropped
// connections. Rates are set so that, with the small sweep job count,
// every seed sees several kills and drops while the client's retry
// budget still converges.
func svcChaosProfile(seed uint64) svcchaos.Profile {
	return svcchaos.Profile{
		KillRate:  0.4,
		StallRate: 0.3, StallMs: 30,
		DelayRate: 0.2, DelayMs: 5,
		DropRate: 0.15,
		Seed:     seed,
	}
}

// svcChaosJob is one sweep cell tracked across the crash.
type svcChaosJob struct {
	name    string
	threads int
	data    []byte // canonical spec bytes
	id      string // job ID from the chaotic daemon; "" if submit failed
}

// AblationServiceChaos is the service-layer analogue of AblationChaos:
// a crash/recovery conservation sweep over the macd job path. Per
// seed, a journaled daemon is run behind a chaos-wrapped listener and
// handler with a chaos-wrapped runner; the resilient client submits
// the sweep's job set through drops, delays and worker kills; the
// daemon is then crashed mid-sweep (listener torn down, journal cut
// mid-write) and restarted chaos-free on the same journal directory.
// The experiment fails unless every job reaches exactly one terminal
// state per admission epoch (VerifyJournal), every result is
// byte-identical to a chaos-free baseline, and the original job IDs
// survive the restart (AwaitResult resumes by ID).
func (s *Suite) AblationServiceChaos() (*stats.Table, error) {
	seeds := []uint64{1, 2, 3}
	jobs, err := s.svcChaosJobs()
	if err != nil {
		return nil, err
	}

	// Chaos-free baseline, computed once in process: the journal and
	// the chaos path must not change a single result byte.
	baseline, err := s.svcChaosBaseline(jobs)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Ablation: service chaos sweep (crash-safe conservation)",
		"seed", "jobs", "killed", "stalls", "drops", "requeued",
		"replayed", "corrupt", "retries", "breaker_opens", "violations")
	for _, seed := range seeds {
		row, err := s.svcChaosSeed(seed, jobs, baseline)
		if err != nil {
			return nil, fmt.Errorf("abl-svcchaos seed %d: %w", seed, err)
		}
		t.AddRow(seed, uint64(len(jobs)), row.killed, row.stalls, row.drops,
			row.requeued, row.replayed, row.corrupt, row.retries,
			row.breakerOpens, row.violations)
	}
	return t, nil
}

// svcChaosJobs builds the sweep's job set: the ablation benchmarks at
// two thread counts each.
func (s *Suite) svcChaosJobs() ([]*svcChaosJob, error) {
	var jobs []*svcChaosJob
	for _, name := range s.ablationSet() {
		for _, th := range []int{2, 4} {
			spec := service.Spec{
				Kind: service.KindRun,
				Run: &mac3d.RunOptions{
					Workload: name, Threads: th,
					Seed: s.opts.Seed, Scale: s.opts.Scale,
				},
			}
			data, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, &svcChaosJob{name: name, threads: th, data: data})
		}
	}
	return jobs, nil
}

// svcChaosBaseline runs every sweep job through a plain in-process
// service — no journal, no chaos — and returns hash -> report bytes.
func (s *Suite) svcChaosBaseline(jobs []*svcChaosJob) (map[string][]byte, error) {
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	defer svc.Drain(ctx)

	api := service.Local{Service: svc}
	baseline := make(map[string][]byte)
	for _, j := range jobs {
		st, err := api.SubmitJSON(ctx, j.data)
		if err != nil {
			return nil, fmt.Errorf("baseline submit %s/%d: %w", j.name, j.threads, err)
		}
		raw, err := api.AwaitResult(ctx, st.ID)
		if err != nil {
			return nil, fmt.Errorf("baseline %s/%d: %w", j.name, j.threads, err)
		}
		baseline[st.Hash] = raw
	}
	return baseline, nil
}

type svcChaosRow struct {
	killed, stalls, drops       uint64
	requeued, replayed, corrupt uint64
	retries, breakerOpens       uint64
	violations                  uint64
}

// svcChaosSeed runs one seed's crash/recovery cycle and checks its
// invariants against the baseline.
func (s *Suite) svcChaosSeed(seed uint64, jobs []*svcChaosJob, baseline map[string][]byte) (*svcChaosRow, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	dir, err := os.MkdirTemp("", fmt.Sprintf("svcchaos-seed%d-", seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in := svcchaos.MustNew(svcChaosProfile(seed))

	// Phase 1: the chaotic daemon. Journaled, chaos-wrapped runner,
	// served over a real TCP listener that drops connections and a
	// handler that delays requests.
	svcA, err := service.New(service.Config{
		Workers: 2, JournalDir: dir, WrapRunner: in.WrapRunner,
	})
	if err != nil {
		return nil, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvA := &http.Server{Handler: in.Middleware(service.Handler(svcA))}
	go srvA.Serve(in.Listener(inner))

	client := &service.Client{
		BaseURL:        "http://" + inner.Addr().String(),
		PollInterval:   10 * time.Millisecond,
		PollMax:        100 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Retry: service.RetryPolicy{
			MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
			MaxDelay: 200 * time.Millisecond, Multiplier: 2,
			Jitter: 0.2, Seed: seed,
		},
		Breaker: &service.Breaker{FailureThreshold: 4, Cooldown: 100 * time.Millisecond},
	}

	s.progress("abl-svcchaos seed %d: submitting %d jobs under %s", seed, len(jobs), svcChaosProfile(seed))
	for _, j := range jobs {
		j.id = "" // reset from a previous seed
		st, err := client.SubmitJSON(ctx, j.data)
		if err != nil {
			// The drop/kill storm can exhaust even the generous retry
			// budget; the spec is resubmitted after the restart.
			continue
		}
		j.id = st.ID
	}

	// Let the sweep make partial progress, then crash the daemon
	// mid-flight: tear the listener down first (no response can be
	// delivered after Close returns, so every ID the client holds is
	// journaled), then cut the journal mid-write.
	time.Sleep(300 * time.Millisecond)
	srvA.Close()
	svcA.Kill()

	// Phase 2: restart chaos-free on the same journal directory.
	svcB, err := service.New(service.Config{Workers: 2, JournalDir: dir})
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	rec := svcB.Recovery()
	if rec == nil {
		return nil, fmt.Errorf("restart produced no recovery report")
	}
	s.progress("abl-svcchaos seed %d: recovered: %s", seed, rec)
	innerB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srvB := &http.Server{Handler: service.Handler(svcB)}
	go srvB.Serve(innerB)
	defer srvB.Close()
	client.BaseURL = "http://" + innerB.Addr().String()

	// Resubmit every spec (idempotent: content addressing coalesces or
	// cache-hits) to cover submissions that never reached the journal,
	// then await both the fresh and the pre-crash job IDs.
	for _, j := range jobs {
		st, err := client.SubmitJSON(ctx, j.data)
		if err != nil {
			return nil, fmt.Errorf("resubmit %s/%d: %w", j.name, j.threads, err)
		}
		want, ok := baseline[st.Hash]
		if !ok {
			return nil, fmt.Errorf("%s/%d: hash %s not in baseline", j.name, j.threads, st.Hash)
		}
		ids := []string{st.ID}
		if j.id != "" && j.id != st.ID {
			ids = append(ids, j.id)
		}
		for _, id := range ids {
			raw, err := client.AwaitResult(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("await %s (%s/%d): %w", id, j.name, j.threads, err)
			}
			if string(raw) != string(want) {
				return nil, fmt.Errorf("%s/%d: result of %s differs from chaos-free baseline (%d vs %d bytes)",
					j.name, j.threads, id, len(raw), len(want))
			}
		}
	}

	// Settle and audit the journal: every admitted job must show
	// exactly one terminal state per admission epoch, and every sweep
	// spec must have converged to done.
	if err := svcB.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	recs, damage, err := service.ReadJournal(dir)
	if err != nil {
		return nil, fmt.Errorf("reading journal: %w", err)
	}
	if damage != nil {
		return nil, fmt.Errorf("journal damaged after clean drain: %s at offset %d", damage.Reason, damage.Offset)
	}
	violations := service.VerifyJournal(recs)
	if len(violations) != 0 {
		return nil, fmt.Errorf("journal violations: %v", violations)
	}
	final := service.FoldFinalStates(recs)
	done := make(map[string]bool)
	for _, st := range final {
		if st.State == service.StateDone {
			done[st.Hash] = true
		}
	}
	for hash := range baseline {
		if !done[hash] {
			return nil, fmt.Errorf("spec %s never reached done in the journal", hash)
		}
	}

	rep := in.Report()
	cs := client.Stats()
	return &svcChaosRow{
		killed: rep.Kills, stalls: rep.Stalls, drops: rep.Drops,
		requeued: uint64(rec.Requeued), replayed: uint64(rec.Records),
		corrupt: uint64(rec.CorruptTruncated),
		retries: cs.Retries, breakerOpens: client.Breaker.Opens(),
		violations: uint64(len(violations)),
	}, nil
}
