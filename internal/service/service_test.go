package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustSpec(t testing.TB, raw string) Spec {
	t.Helper()
	s, err := ParseSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runSpec(seed int) string {
	return fmt.Sprintf(`{"kind":"run","run":{"workload":"sg","seed":%d}}`, seed)
}

// slowRunner blocks each execution until release closes, then returns
// bytes derived from the spec hash.
type slowRunner struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (r *slowRunner) run(s Spec) ([]byte, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	if r.release != nil {
		<-r.release
	}
	h, err := s.Hash()
	if err != nil {
		return nil, err
	}
	return []byte(`{"report":"` + h + `"}`), nil
}

func (r *slowRunner) callCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func newTestService(t *testing.T, cfg Config, run func(Spec) ([]byte, error)) *Service {
	t.Helper()
	s, err := newWithRunner(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func TestSubmitExecutesAndCaches(t *testing.T) {
	r := &slowRunner{}
	s := newTestService(t, Config{Workers: 2}, r.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached || st.Coalesced {
		t.Fatalf("first submission should execute, got %+v", st)
	}
	first, err := s.AwaitResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Identical spec again: served from the cache, no execution.
	st2, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("second submission should be a cache hit, got %+v", st2)
	}
	second, err := s.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache returned different bytes for the same spec")
	}
	if n := r.callCount(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}

	// A different seed is a different job.
	st3, err := s.Submit(mustSpec(t, runSpec(2)))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Fatal("different seed must not hit the cache")
	}
	if _, err := s.AwaitResult(ctx, st3.ID); err != nil {
		t.Fatal(err)
	}
	if n := r.callCount(); n != 2 {
		t.Fatalf("runner called %d times, want 2", n)
	}
}

func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	r := &slowRunner{release: make(chan struct{})}
	s := newTestService(t, Config{Workers: 2, QueueDepth: 8}, r.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	primary, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picks it up, then pile on identical jobs.
	deadline := time.Now().Add(5 * time.Second)
	for r.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started the job")
		}
		time.Sleep(time.Millisecond)
	}
	var followers []JobStatus
	for i := 0; i < 4; i++ {
		st, err := s.Submit(mustSpec(t, runSpec(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Coalesced {
			t.Fatalf("in-flight duplicate should coalesce, got %+v", st)
		}
		followers = append(followers, st)
	}
	close(r.release)
	want, err := s.AwaitResult(ctx, primary.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range followers {
		got, err := s.AwaitResult(ctx, f.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("follower result differs from primary")
		}
	}
	if n := r.callCount(); n != 1 {
		t.Fatalf("runner called %d times, want 1 (single flight)", n)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	r := &slowRunner{release: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1}, r.run)

	// First job occupies the worker, second fills the queue slot.
	if _, err := s.Submit(mustSpec(t, runSpec(1))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(mustSpec(t, runSpec(2))); err != nil {
		t.Fatal(err)
	}
	// Third distinct spec must bounce.
	_, err := s.Submit(mustSpec(t, runSpec(3)))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// But an identical duplicate still coalesces — backpressure never
	// rejects work that costs nothing extra.
	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil || !st.Coalesced {
		t.Fatalf("duplicate during backpressure: st=%+v err=%v", st, err)
	}
	close(r.release)
}

func TestCancelQueuedJob(t *testing.T) {
	r := &slowRunner{release: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, r.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := s.Submit(mustSpec(t, runSpec(1))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(mustSpec(t, runSpec(2)))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Cancel(queued.ID)
	if err != nil || !ok {
		t.Fatalf("Cancel: ok=%v err=%v", ok, err)
	}
	st, err := s.Wait(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := s.Result(queued.ID); err == nil {
		t.Fatal("canceled job should have no result")
	}
	close(r.release)
	// The worker must skip the canceled job, not run it.
	if _, err := s.AwaitResult(ctx, "j-00000001"); err != nil {
		t.Fatal(err)
	}
	if n := r.callCount(); n != 1 {
		t.Fatalf("runner called %d times, want 1 (canceled job skipped)", n)
	}
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	run := func(Spec) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte(`{}`), nil
	}
	s := newTestService(t, Config{Workers: 1}, run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if ok, err := s.Cancel(st.ID); err != nil || !ok {
		t.Fatalf("Cancel: ok=%v err=%v", ok, err)
	}
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	close(release) // let the abandoned goroutine exit

	// The discarded result must not have been cached.
	st2, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("canceled job's result leaked into the cache")
	}
	<-started
	if _, err := s.AwaitResult(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	run := func(Spec) ([]byte, error) {
		<-release
		return []byte(`{}`), nil
	}
	s := newTestService(t, Config{Workers: 1, JobTimeout: 20 * time.Millisecond}, run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed (timeout)", final.State)
	}
	if final.Error == "" {
		t.Fatal("timeout failure should carry an error message")
	}
}

// TestReadyCancelBeatsReadyResult: when a run's result and its cancel
// (or deadline) are both ready before the worker waits, the job ends
// canceled (or timed out), never done. The hook holds the worker until
// both are ready, so a wait that picks between them at random fails
// about half of the jobs.
func TestReadyCancelBeatsReadyResult(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		want    State
	}{
		{"cancel", 0, StateCanceled},
		{"timeout", time.Millisecond, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(Spec) ([]byte, error) { return []byte(`{}`), nil }
			s := newTestService(t, Config{Workers: 1, JobTimeout: tc.timeout}, run)
			s.beforeWait = func(ctx context.Context, id string, result chan runOutcome) {
				o := <-result
				if tc.timeout == 0 {
					if ok, err := s.Cancel(id); err != nil || !ok {
						t.Errorf("Cancel: ok=%v err=%v", ok, err)
					}
				}
				<-ctx.Done()
				result <- o
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 1; i <= 32; i++ {
				st, err := s.Submit(mustSpec(t, runSpec(i)))
				if err != nil {
					t.Fatal(err)
				}
				final, err := s.Wait(ctx, st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if final.State != tc.want {
					t.Fatalf("job %d: state = %s, want %s", i, final.State, tc.want)
				}
			}
		})
	}
}

func TestFailedJobReportsError(t *testing.T) {
	run := func(Spec) ([]byte, error) { return nil, errors.New("boom") }
	s := newTestService(t, Config{Workers: 1}, run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("final = %+v, want failed/boom", final)
	}
	if _, err := s.Result(st.ID); err == nil || err.Error() != "boom" {
		t.Fatalf("Result err = %v, want boom", err)
	}
	// Failures are not cached: the next submission re-executes.
	st2, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("failed job's result must not be cached")
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	r := &slowRunner{}
	s, err := newWithRunner(Config{Workers: 2}, r.run)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The in-flight job finished during the drain.
	if _, err := s.Result(st.ID); err != nil {
		t.Fatalf("drained job has no result: %v", err)
	}
	if _, err := s.Submit(mustSpec(t, runSpec(2))); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedSubmissions(t *testing.T) {
	// The acceptance bar: >=32 concurrent mixed submissions, raced.
	r := &slowRunner{}
	s := newTestService(t, Config{Workers: 8, QueueDepth: 128}, r.run)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 48
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// 12 distinct specs, each submitted 4 times.
			st, err := s.Submit(mustSpec(t, runSpec(i%12)))
			if err != nil {
				errs <- err
				return
			}
			data, err := s.AwaitResult(ctx, st.ID)
			if err != nil {
				errs <- fmt.Errorf("job %s: %w", st.ID, err)
				return
			}
			if len(data) == 0 {
				errs <- fmt.Errorf("job %s: empty result", st.ID)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Deduplication must have collapsed the 4x duplication: at most one
	// execution per distinct spec.
	if n := r.callCount(); n > 12 {
		t.Fatalf("runner called %d times for 12 distinct specs", n)
	}
	// And the registry must agree that dedup happened.
	var hits, coalesced float64
	for _, m := range s.Registry().Snapshot() {
		switch m.Name {
		case "macd.cache.hits":
			hits = m.Value
		case "macd.jobs.coalesced":
			coalesced = m.Value
		}
	}
	if hits+coalesced < 36 {
		t.Fatalf("hits (%g) + coalesced (%g) = %g, want >= 36", hits, coalesced, hits+coalesced)
	}
}

func TestRetentionForgetsOldJobs(t *testing.T) {
	r := &slowRunner{}
	s := newTestService(t, Config{Workers: 1, RetainJobs: 2}, r.run)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(mustSpec(t, runSpec(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AwaitResult(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest job should be retired, got err = %v", err)
	}
	if _, err := s.Job(ids[3]); err != nil {
		t.Fatalf("newest job should be retained: %v", err)
	}
}

func TestResultNotFinished(t *testing.T) {
	r := &slowRunner{release: make(chan struct{})}
	s := newTestService(t, Config{Workers: 1}, r.run)
	st, err := s.Submit(mustSpec(t, runSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(st.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("err = %v, want ErrNotFinished", err)
	}
	if _, err := s.Result("j-99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	close(r.release)
}

func TestRealExecutionByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	// End to end with the real executor: the same tiny spec twice; the
	// second submission must be a cache hit serving byte-identical
	// report JSON.
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer s.Drain(ctx)

	spec := mustSpec(t, `{"kind":"run","run":{"workload":"sg","scale":"tiny","seed":1}}`)
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AwaitResult(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("second identical submission should hit the cache")
	}
	second, err := s.Result(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("reports for identical spec+seed are not byte-identical")
	}
	if len(first) == 0 || first[0] != '{' {
		t.Fatalf("result does not look like a JSON report: %.40s", first)
	}
}
