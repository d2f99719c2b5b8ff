package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// heldRunner hands every execution to the test: a call announces its
// spec hash on started and returns whatever the test sends on finish.
type heldRunner struct {
	started chan string
	finish  chan runOutcome
}

func newHeldRunner() *heldRunner {
	return &heldRunner{started: make(chan string, 8), finish: make(chan runOutcome)}
}

func (r *heldRunner) run(s Spec) ([]byte, error) {
	h, err := s.Hash()
	if err != nil {
		return nil, err
	}
	r.started <- h
	o := <-r.finish
	return o.data, o.err
}

// reportFor is the report bytes the golden runners return for a hash.
func reportFor(hash string) []byte { return []byte(`{"report":"` + hash + `"}`) }

// goldenRecords renders a journal as one line per record, with spec
// hashes replaced by the names the test gave them.
func goldenRecords(t *testing.T, dir string, names map[string]string) []string {
	t.Helper()
	recs, damage, err := ReadJournal(dir)
	if err != nil || damage != nil {
		t.Fatalf("read journal: %v / %v", err, damage)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		h := names[r.Hash]
		if h == "" && r.Hash != "" {
			h = "?" + r.Hash
		}
		out[i] = fmt.Sprintf("%s %s %s %s %q %d", r.Op, r.Job, h, r.State, r.Error, r.ResultLen)
	}
	return out
}

// goldenCounters renders the job and cache counters and the histogram
// counts of s: every metric the terminal transitions move that does not
// depend on wall-clock time.
func goldenCounters(s *Service) string {
	var b strings.Builder
	for _, m := range s.Registry().Snapshot() {
		switch {
		case strings.HasPrefix(m.Name, "macd.jobs."),
			m.Name == "macd.cache.hits", m.Name == "macd.cache.misses", m.Name == "macd.cache.entries",
			strings.HasPrefix(m.Name, "macd.job.") && strings.HasSuffix(m.Name, ".count"):
			fmt.Fprintf(&b, "%s=%g ", strings.TrimPrefix(m.Name, "macd."), m.Value)
		}
	}
	return strings.TrimSpace(b.String())
}

func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	t.Errorf("%s differ:\n got:\n  %s\nwant:\n  %s", what, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
}

// TestJournalGolden drives one scripted history through a one-worker,
// one-slot service whose runner the test holds, kills it with a job
// running, restarts it, and pins every journal record, the recovery
// report and the counters of both incarnations.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cfg := Config{Workers: 1, QueueDepth: 1, JournalDir: dir}
	hr := newHeldRunner()
	s, err := newWithRunner(cfg, hr.run)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	submit := func(name string, seed int) JobStatus {
		t.Helper()
		spec := mustSpec(t, runSpec(seed))
		h, err := spec.Hash()
		if err != nil {
			t.Fatal(err)
		}
		names[h] = name
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		return st
	}
	wait := func(id string) {
		t.Helper()
		if _, err := s.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	idle := func() {
		t.Helper()
		for len(s.queue) > 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// A runs and is held; B queues; B's twin coalesces onto it.
	a := submit("A", 1)
	<-hr.started
	b := submit("B", 2)
	twin := submit("B", 2)
	if !twin.Coalesced {
		t.Fatalf("twin of B did not coalesce: %+v", twin)
	}
	// The one queue slot is taken: C is refused and leaves no record.
	if _, err := s.Submit(mustSpec(t, runSpec(3))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("C: err = %v, want ErrQueueFull", err)
	}
	// Cancel the follower, then the queued primary.
	for _, id := range []string{twin.ID, b.ID} {
		if ok, err := s.Cancel(id); !ok || err != nil {
			t.Fatalf("cancel %s: %v %v", id, ok, err)
		}
	}
	h, _ := mustSpec(t, runSpec(1)).Hash()
	hr.finish <- runOutcome{data: reportFor(h)}
	wait(a.ID)
	idle()
	// A repeat of A is a cache hit.
	if st := submit("A", 1); !st.Cached {
		t.Fatalf("repeat of A not cached: %+v", st)
	}
	// D fails.
	d := submit("D", 4)
	<-hr.started
	hr.finish <- runOutcome{err: errors.New("boom")}
	wait(d.ID)
	idle()
	// E is running when the service is killed.
	e := submit("E", 5)
	<-hr.started
	first := goldenCounters(s)
	s.Kill()
	hr.finish <- runOutcome{err: errors.New("abandoned")}

	// The restart replays E and runs it to completion.
	r2 := &slowRunner{}
	s2, err := newWithRunner(cfg, r2.run)
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.Recovery().String()
	if _, err := s2.Wait(ctx, e.ID); err != nil {
		t.Fatal(err)
	}
	second := goldenCounters(s2)
	drainService(t, s2)

	diffLines(t, "journal records", goldenRecords(t, dir, names), []string{
		`submit j-00000001 A  "" 0`,
		`start j-00000001 A  "" 0`,
		`submit j-00000002 B  "" 0`,
		`submit j-00000003 B  "" 0`,
		`terminal j-00000003 B canceled "service: job canceled" 0`,
		`terminal j-00000002 B canceled "service: job canceled" 0`,
		`terminal j-00000001 A done "" 77`,
		`submit j-00000005 A  "" 0`,
		`terminal j-00000005 A done "" 77`,
		`submit j-00000006 D  "" 0`,
		`start j-00000006 D  "" 0`,
		`terminal j-00000006 D failed "boom" 0`,
		`submit j-00000007 E  "" 0`,
		`start j-00000007 E  "" 0`,
		`requeue j-00000007 E  "" 0`,
		`start j-00000007 E  "" 0`,
		`terminal j-00000007 E done "" 77`,
	})
	if want := "replayed 14 records, 6 jobs: 5 completed, 1 requeued"; rec != want {
		t.Errorf("recovery report:\n got %s\nwant %s", rec, want)
	}
	if want := "cache.entries=1 cache.hits=1 cache.misses=6 job.queue_wait_us.count=3 job.run_us.count=2 " +
		"jobs.canceled=2 jobs.coalesced=1 jobs.completed=2 jobs.failed=1 jobs.peer_hits=0 jobs.recovered=0 " +
		"jobs.rejected=1 jobs.submitted=7 jobs.timeout=0 jobs.worker_killed=0"; first != want {
		t.Errorf("counters before the kill:\n got %s\nwant %s", first, want)
	}
	if want := "cache.entries=2 cache.hits=0 cache.misses=1 job.queue_wait_us.count=1 job.run_us.count=1 " +
		"jobs.canceled=2 jobs.coalesced=0 jobs.completed=3 jobs.failed=1 jobs.peer_hits=0 jobs.recovered=6 " +
		"jobs.rejected=0 jobs.submitted=1 jobs.timeout=0 jobs.worker_killed=0"; second != want {
		t.Errorf("counters after the restart:\n got %s\nwant %s", second, want)
	}
}

// TestJournalReplayGolden pins the replay paths the scripted history
// above does not reach: a live job whose result is already in the
// restored cache, one whose result file landed without its terminal
// record, two live twins that re-coalesce, and a live job whose spec
// no longer parses.
func TestJournalReplayGolden(t *testing.T) {
	dir := t.TempDir()
	names := map[string]string{}
	spec := func(name string, seed int) (string, []byte) {
		s := mustSpec(t, runSpec(seed))
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		canon, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		names[h] = name
		return h, canon
	}
	hW, cW := spec("W", 11)
	hX, cX := spec("X", 12)
	hY, cY := spec("Y", 13)
	hZ := strings.Repeat("0", 64)
	names[hZ] = "Z"
	store := &journal{dir: dir}
	crcW, err := store.writeResult(hW, reportFor(hW))
	if err != nil {
		t.Fatal(err)
	}
	// X's result reached the store, but not its terminal record.
	if _, err := store.writeResult(hX, reportFor(hX)); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir,
		Record{Op: OpSubmit, Job: "j-00000001", Hash: hW, Spec: cW},
		Record{Op: OpStart, Job: "j-00000001", Hash: hW},
		Record{Op: OpTerminal, Job: "j-00000001", Hash: hW, State: StateDone, ResultLen: len(reportFor(hW)), ResultCRC: crcW},
		Record{Op: OpSubmit, Job: "j-00000002", Hash: hW, Spec: cW},
		Record{Op: OpSubmit, Job: "j-00000003", Hash: hX, Spec: cX},
		Record{Op: OpStart, Job: "j-00000003", Hash: hX},
		Record{Op: OpSubmit, Job: "j-00000004", Hash: hY, Spec: cY},
		Record{Op: OpStart, Job: "j-00000004", Hash: hY},
		Record{Op: OpSubmit, Job: "j-00000005", Hash: hY, Spec: cY},
		Record{Op: OpSubmit, Job: "j-00000006", Hash: hZ, Spec: []byte(`{"kind":"warp-drive"}`)},
	)

	r := &slowRunner{}
	s, err := newWithRunner(Config{Workers: 1, JournalDir: dir}, r.run)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.Recovery().String()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var states []string
	for i := 1; i <= 6; i++ {
		st, err := s.Wait(ctx, fmt.Sprintf("j-%08d", i))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, fmt.Sprintf("%s %s cached=%v coalesced=%v recovered=%v %q",
			st.ID, st.State, st.Cached, st.Coalesced, st.Recovered, st.Error))
	}
	counters := goldenCounters(s)
	drainService(t, s)

	diffLines(t, "journal records", goldenRecords(t, dir, names), []string{
		`submit j-00000001 W  "" 0`,
		`start j-00000001 W  "" 0`,
		`terminal j-00000001 W done "" 77`,
		`submit j-00000002 W  "" 0`,
		`submit j-00000003 X  "" 0`,
		`start j-00000003 X  "" 0`,
		`submit j-00000004 Y  "" 0`,
		`start j-00000004 Y  "" 0`,
		`submit j-00000005 Y  "" 0`,
		`submit j-00000006 Z  "" 0`,
		`requeue j-00000002 W  "" 0`,
		`terminal j-00000002 W done "" 77`,
		`requeue j-00000003 X  "" 0`,
		`terminal j-00000003 X done "" 77`,
		`requeue j-00000004 Y  "" 0`,
		`requeue j-00000005 Y  "" 0`,
		`start j-00000004 Y  "" 0`,
		`terminal j-00000004 Y done "" 77`,
		`terminal j-00000005 Y done "" 77`,
	})
	diffLines(t, "job states", states, []string{
		`j-00000001 done cached=false coalesced=false recovered=true ""`,
		`j-00000002 done cached=true coalesced=false recovered=true ""`,
		`j-00000003 done cached=true coalesced=false recovered=true ""`,
		`j-00000004 done cached=false coalesced=false recovered=true ""`,
		`j-00000005 done cached=false coalesced=true recovered=true ""`,
		`j-00000006 failed cached=false coalesced=false recovered=true "service: recovered spec no longer parses: service: unknown spec kind \"warp-drive\" (want run, compare or numa)"`,
	})
	if want := "replayed 10 records, 6 jobs: 4 completed, 2 requeued"; rec != want {
		t.Errorf("recovery report:\n got %s\nwant %s", rec, want)
	}
	if want := "cache.entries=3 cache.hits=1 cache.misses=3 job.queue_wait_us.count=1 job.run_us.count=1 " +
		"jobs.canceled=0 jobs.coalesced=1 jobs.completed=5 jobs.failed=1 jobs.peer_hits=0 jobs.recovered=5 " +
		"jobs.rejected=0 jobs.submitted=4 jobs.timeout=0 jobs.worker_killed=0"; counters != want {
		t.Errorf("counters:\n got %s\nwant %s", counters, want)
	}
	if n := r.callCount(); n != 1 {
		t.Errorf("replay ran %d simulations, want 1 (Y once for both twins)", n)
	}
}
