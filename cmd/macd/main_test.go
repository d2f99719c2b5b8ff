package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mac3d/internal/service"
)

// buildMacd compiles the daemon binary into a test temp dir.
func buildMacd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "macd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	build := exec.Command("go", "build", "-o", bin, "mac3d/cmd/macd")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon builds macd, starts it on an ephemeral port and returns
// a client plus a stop function that SIGTERMs the daemon and asserts a
// clean exit.
func startDaemon(t *testing.T, extraArgs ...string) (*service.Client, func()) {
	t.Helper()
	bin := buildMacd(t)

	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// The first stdout line announces the bound address.
	lines := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	go func() {
		if lines.Scan() {
			addrc <- strings.TrimPrefix(lines.Text(), "macd: listening on ")
		}
		close(addrc)
		for lines.Scan() {
		}
	}()
	var addr string
	select {
	case a, ok := <-addrc:
		if !ok || a == "" {
			cmd.Process.Kill()
			t.Fatalf("macd printed no listen line; stderr:\n%s", stderr.String())
		}
		addr = a
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("macd did not start; stderr:\n%s", stderr.String())
	}

	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("macd exited uncleanly after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("macd did not drain within 60s of SIGTERM; stderr:\n%s", stderr.String())
		}
	}
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return &service.Client{
		BaseURL:      "http://" + addr,
		PollInterval: 10 * time.Millisecond,
	}, stop
}

// TestDaemonEndToEnd is the acceptance scenario: start macd, submit
// two identical jobs concurrently plus a mixed load, verify the
// duplicate work deduplicates (coalesce or cache hit) with
// byte-identical results, then verify a later identical submission is
// a pure cache hit, and finally SIGTERM drains cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon and runs real simulations")
	}
	c, stop := startDaemon(t, "-workers", "4", "-queue", "64")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	if ok, draining, err := c.Healthz(ctx); err != nil || !ok || draining {
		t.Fatalf("healthz: ok=%v draining=%v err=%v", ok, draining, err)
	}

	spec := []byte(`{"kind":"run","run":{"workload":"sg","scale":"tiny","seed":1}}`)

	// Two identical jobs, submitted concurrently.
	type res struct {
		st   service.JobStatus
		data []byte
		err  error
	}
	results := make([]res, 2)
	var wg sync.WaitGroup
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.SubmitJSON(ctx, spec)
			if err != nil {
				results[i].err = err
				return
			}
			data, err := c.AwaitResult(ctx, st.ID)
			results[i] = res{st: st, data: data, err: err}
		}()
	}
	// A mixed background load alongside them.
	mixed := []string{
		`{"kind":"run","run":{"workload":"bfs","scale":"tiny","seed":2}}`,
		`{"kind":"numa","numa":{"workload":"is","threads":4,"nodes":2,"cores_per_node":2}}`,
	}
	mixedErrs := make(chan error, len(mixed))
	for _, m := range mixed {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.SubmitJSON(ctx, []byte(m))
			if err == nil {
				_, err = c.AwaitResult(ctx, st.ID)
			}
			if err != nil {
				mixedErrs <- fmt.Errorf("mixed job %s: %w", m, err)
			}
		}()
	}
	wg.Wait()
	close(mixedErrs)
	for err := range mixedErrs {
		t.Error(err)
	}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("identical job %d: %v", i, r.err)
		}
	}
	if !bytes.Equal(results[0].data, results[1].data) {
		t.Fatal("identical spec+seed jobs returned different bytes")
	}
	if results[0].st.Hash != results[1].st.Hash {
		t.Fatal("identical specs were assigned different hashes")
	}
	// One of the pair deduplicated against the other: either it
	// coalesced onto the in-flight run or it hit the cache.
	deduped := results[0].st.Cached || results[0].st.Coalesced ||
		results[1].st.Cached || results[1].st.Coalesced
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped && m["macd.jobs.coalesced"]+m["macd.cache.hits"] < 1 {
		t.Fatalf("duplicate submission executed twice: metrics %v", m)
	}

	// A third identical submission now must be a pure cache hit.
	st3, err := c.SubmitJSON(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached {
		t.Fatalf("post-completion duplicate should be cached, got %+v", st3)
	}
	data3, err := c.Result(ctx, st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data3, results[0].data) {
		t.Fatal("cached result differs from original")
	}
	m2, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m2["macd.cache.hits"] < 1 {
		t.Fatalf("macd.cache.hits = %g, want >= 1", m2["macd.cache.hits"])
	}

	// SIGTERM drains and exits 0 (asserted inside stop).
	stop()
}

// TestDaemonRejectsInvalidSpec starts the daemon and checks the
// HTTP-visible validation path.
func TestDaemonRejectsInvalidSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon")
	}
	c, stop := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, bad := range []string{
		`{"kind":"run"}`,
		`{"kind":"run","run":{"workload":"sg","threads":-1}}`,
		`not json`,
	} {
		if _, err := c.SubmitJSON(ctx, []byte(bad)); err == nil {
			t.Errorf("daemon accepted invalid spec %q", bad)
		}
	}
	stop()
}

// rawDaemon starts a pre-built macd binary and returns its process,
// the parsed listen address, and a channel of subsequent stdout lines.
func rawDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string, <-chan string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatalf("macd printed no listen line; stderr:\n%s", stderr.String())
	}
	addr := strings.TrimPrefix(lines.Text(), "macd: listening on ")
	rest := make(chan string, 64)
	go func() {
		defer close(rest)
		for lines.Scan() {
			select {
			case rest <- lines.Text():
			default:
			}
		}
	}()
	return cmd, addr, rest
}

// TestDaemonCrashRecovery is the acceptance drill for the crash-safe
// journal: start macd with -journal and a stall profile that pins the
// job in-flight, submit, SIGKILL the daemon mid-job, restart it on the
// same journal directory without chaos, and require the original job
// ID to finish with bytes identical to an uninterrupted daemon's
// result for the same spec.
func TestDaemonCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon")
	}
	bin := buildMacd(t)
	dir := t.TempDir()
	spec := []byte(`{"kind":"run","run":{"workload":"sg","seed":7,"scale":"tiny"}}`)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Reference run: an uninterrupted daemon's bytes for the spec.
	ref, stopRef := startDaemon(t)
	refSt, err := ref.SubmitJSON(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.AwaitResult(ctx, refSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	stopRef()

	// Chaotic incarnation: every run stalls 30s, so the job is still
	// in-flight — started, not finalized — when the SIGKILL lands.
	cmdA, addrA, _ := rawDaemon(t, bin,
		"-journal", dir, "-workers", "1", "-svcchaos", "stall=1:30000,seed=1")
	cA := &service.Client{BaseURL: "http://" + addrA, PollInterval: 10 * time.Millisecond}
	st, err := cA.SubmitJSON(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the worker has picked the job up, then kill -9.
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := cA.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s before crash", js.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait()

	// Restart on the same journal, chaos-free. The recovered line is
	// parseable from stdout after the listen line.
	_, addrB, restB := rawDaemon(t, bin, "-journal", dir, "-workers", "1")
	select {
	case line := <-restB:
		if !strings.HasPrefix(line, "macd: recovered: ") {
			t.Fatalf("second line %q, want recovery report", line)
		}
		if !strings.Contains(line, "1 requeued") {
			t.Fatalf("recovery line %q, want 1 requeued", line)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no recovery line after restart")
	}

	// The resilient client resumes the original job ID and the result
	// is byte-identical to the uninterrupted run.
	cB := &service.Client{
		BaseURL:      "http://" + addrB,
		PollInterval: 10 * time.Millisecond,
		Retry:        service.DefaultRetryPolicy(),
	}
	got, err := cB.AwaitResult(ctx, st.ID)
	if err != nil {
		t.Fatalf("awaiting original job %s after restart: %v", st.ID, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}

	// The journal on disk must verify clean: exactly one terminal per
	// admission epoch, with the requeue explaining the recovery.
	recs, _, err := service.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v := service.VerifyJournal(recs); len(v) != 0 {
		t.Fatalf("journal violations: %v", v)
	}
	final := service.FoldFinalStates(recs)
	if fs := final[st.ID]; fs.State != service.StateDone {
		t.Fatalf("job %s final state %s, want done", st.ID, fs.State)
	}
}

// TestRouterRefusesDaemonFlags pins that router mode refuses every
// daemon-only flag by name (exit 2) instead of serving without it, and
// creates nothing on disk.
func TestRouterRefusesDaemonFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon")
	}
	bin := buildMacd(t)
	journal := filepath.Join(t.TempDir(), "j")
	for _, extra := range [][]string{
		{"-workers", "8"},
		{"-queue", "8"},
		{"-cache-bytes", "1024"},
		{"-job-timeout", "1m"},
		{"-retain", "8"},
		{"-drain-timeout", "1m"},
		{"-journal", journal},
		{"-journal-sync"},
		{"-svcchaos", "storm"},
		{"-peers", "http://127.0.0.1:1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		args := append([]string{"-addr", "127.0.0.1:0", "-cluster-router", "shards=http://127.0.0.1:1"}, extra...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("macd %v: err %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), extra[0]) {
			t.Errorf("macd %v: message does not name %s:\n%s", args, extra[0], out)
		}
	}
	if _, err := os.Stat(journal); err == nil {
		t.Error("refused router run still created the -journal directory")
	}
}

// TestDaemonRefusesBadPeers pins that -peers takes only addresses a
// router would take as shards: a list with a non-URL, an empty element
// or a non-http scheme exits with status 2 before serving.
func TestDaemonRefusesBadPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon")
	}
	bin := buildMacd(t)
	for _, peers := range []string{"not a url,,ftp://x", "not a url", "ftp://x", "http://127.0.0.1:1,", "http://127.0.0.1:1,,http://127.0.0.1:2"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		args := []string{"-addr", "127.0.0.1:0", "-peers", peers}
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("macd %q: err %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "-peers") {
			t.Errorf("macd %q: message does not name -peers:\n%s", args, out)
		}
	}
}

// TestRouterServesAndStops runs router mode through the serve loop: it
// announces its address, answers /v1/healthz like a daemon and exits 0
// on SIGTERM.
func TestRouterServesAndStops(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the router")
	}
	c, stop := startDaemon(t, "-cluster-router", "shards=http://127.0.0.1:1")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if ok, draining, err := c.Healthz(ctx); err != nil || !ok || draining {
		t.Fatalf("router healthz: ok=%v draining=%v err=%v", ok, draining, err)
	}
	stop()
}
