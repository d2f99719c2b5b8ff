// Command macd serves the MAC simulator as a daemon: a bounded job
// queue and worker pool behind an HTTP API, with single-flight
// coalescing and a content-addressed result cache so identical
// spec+seed submissions re-use one deterministic report.
//
// Usage:
//
//	macd [-addr :8080] [-workers 4] [-queue 64]
//	     [-cache-bytes 67108864] [-job-timeout 10m] [-retain 4096]
//	     [-journal DIR] [-journal-sync] [-svcchaos PROFILE]
//	     [-peers URL,URL] [-cluster-router CONFIG]
//
// With -journal, every job lifecycle transition is logged to an
// append-only CRC-checked journal in DIR and done results are stored
// content-addressed beside it; a daemon restarted on the same DIR
// replays the log, restores completed results, re-queues interrupted
// jobs and keeps serving the same job IDs (see DESIGN.md "Crash
// safety"). -svcchaos injects seeded service-layer faults (worker
// kills, stalls, request delays, dropped connections, partitions) for
// testing; see internal/svcchaos.
//
// Cluster mode (see DESIGN.md "Sharded cluster"):
//
//   - -peers URL,URL makes this daemon a cluster shard: before
//     executing a job, it consults each peer's content-addressed
//     result store and serves any hit byte-identically.
//   - -cluster-router CONFIG starts a router instead of a daemon: a
//     coordinator that owns a consistent-hash ring over shard daemons,
//     health-checks them, fails jobs over on shard death and applies
//     per-tenant admission quotas. CONFIG is
//     "shards=URL|URL,vnodes=N,hb=DUR,jitter=F,fail=N,readmit=N,
//     quota=RATE:BURST,tenant=NAME:RATE:BURST,seed=N" (see
//     internal/cluster). The router serves the daemon's own /v1
//     handler, plus GET /v1/cluster for topology. It has no queue,
//     cache, journal or chaos injector, so it refuses -workers,
//     -queue, -cache-bytes, -job-timeout, -retain, -drain-timeout,
//     -journal, -journal-sync, -svcchaos and -peers with exit status
//     2 instead of dropping them.
//
// Endpoints (see DESIGN.md "Serving layer"):
//
//	POST   /v1/jobs             submit a JSON job spec
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result finished report JSON
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/results/{hash}   stored result by spec hash
//	GET    /v1/healthz          liveness + drain state
//	GET    /v1/metrics          obs registry as "name value" lines
//
// SIGINT/SIGTERM stops accepting jobs (503), drains queued and
// running work, then exits 0; a router stops its health probers and
// exits 0. Both modes run the same serve loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mac3d/internal/cluster"
	"mac3d/internal/service"
	"mac3d/internal/svcchaos"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = default 4)")
		queue       = flag.Int("queue", 0, "job queue depth before 429s (0 = default 64)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "result cache budget in bytes (0 = default 64 MiB, negative disables)")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job execution timeout (0 = default 10m, negative disables)")
		retain      = flag.Int("retain", 0, "terminal job records to keep (0 = default 4096)")
		drainWait   = flag.Duration("drain-timeout", 2*time.Minute, "max time to wait for in-flight jobs on shutdown")
		journalDir  = flag.String("journal", "", "crash-safe job journal directory (empty disables journaling)")
		journalSync = flag.Bool("journal-sync", false, "fsync every journal append (power-loss durability)")
		chaosSpec   = flag.String("svcchaos", "", "service chaos profile for testing: off, mild, split, storm, or kill=RATE,stall=RATE:MS,delay=RATE:MS,drop=RATE,partition=RATE:MS,seed=N")
		peers       = flag.String("peers", "", "comma-separated peer daemon URLs for cluster result read-through")
		routerSpec  = flag.String("cluster-router", "", "run as a cluster router over shard daemons (see internal/cluster for the config syntax); the daemon-only flags are refused")
	)
	flag.Parse()
	var (
		srv server
		err error
	)
	if *routerSpec != "" {
		// A router has no queue, cache, journal or chaos injector of
		// its own: refuse their flags by name rather than drop them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workers", "queue", "cache-bytes", "job-timeout", "retain", "drain-timeout",
				"journal", "journal-sync", "svcchaos", "peers":
				fmt.Fprintf(os.Stderr, "macd: -%s applies to daemon mode only; drop it or -cluster-router\n", f.Name)
				os.Exit(2)
			}
		})
		srv, err = router(*routerSpec)
	} else {
		cfg := service.Config{
			Workers:     *workers,
			QueueDepth:  *queue,
			CacheBytes:  *cacheBytes,
			JobTimeout:  *jobTimeout,
			RetainJobs:  *retain,
			JournalDir:  *journalDir,
			JournalSync: *journalSync,
		}
		if *peers != "" {
			var urls []string
			for _, p := range strings.Split(*peers, ",") {
				p = strings.TrimSpace(p)
				if err := cluster.ValidateShardURL(p); err != nil {
					fmt.Fprintf(os.Stderr, "macd: -peers: %v\n", err)
					os.Exit(2)
				}
				urls = append(urls, p)
			}
			cfg.ResultLookup = cluster.PeerReadThrough(urls)
		}
		srv, err = daemon(cfg, *chaosSpec, *drainWait)
	}
	if err == nil {
		err = srv.serve(*addr)
	}
	if err != nil {
		log.Fatalf("macd: %v", err)
	}
}

// server is what one macd process serves: a daemon or a cluster
// router.
type server struct {
	handler http.Handler
	// listener, when set, wraps the bound listener (the svcchaos
	// injector's dropped connections).
	listener func(net.Listener) net.Listener
	// banner follows the listen line on stdout.
	banner []string
	// drain runs on SIGINT/SIGTERM before the HTTP server shuts down;
	// both share drainWait.
	drain     func(context.Context) error
	drainWait time.Duration
}

// daemon starts the job service (replaying its journal, if any) behind
// the /v1 API, with the svcchaos profile spec wrapped around both.
func daemon(cfg service.Config, chaosSpec string, drainWait time.Duration) (server, error) {
	profile, err := svcchaos.ParseProfile(chaosSpec)
	if err != nil {
		return server{}, err
	}
	var injector *svcchaos.Injector
	if profile.Enabled() {
		if injector, err = svcchaos.New(profile); err != nil {
			return server{}, err
		}
		cfg.WrapRunner = injector.WrapRunner
	}
	svc, err := service.New(cfg)
	if err != nil {
		return server{}, err
	}
	srv := server{handler: service.Handler(svc), drain: svc.Drain, drainWait: drainWait}
	if rec := svc.Recovery(); rec != nil {
		srv.banner = append(srv.banner, fmt.Sprintf("recovered: %s", rec))
	}
	if injector != nil {
		srv.handler = injector.Middleware(srv.handler)
		srv.listener = injector.Listener
		srv.banner = append(srv.banner, fmt.Sprintf("svcchaos enabled: %s", profile))
	}
	return srv, nil
}

// router starts the cluster coordinator: requests are routed to shards
// instead of executed. Its drain stops the health probers.
func router(spec string) (server, error) {
	cfg, err := cluster.ParseConfig(spec)
	if err != nil {
		return server{}, err
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		return server{}, err
	}
	return server{
		handler:   cluster.Handler(r),
		banner:    []string{fmt.Sprintf("cluster router over %d shards", len(cfg.Shards))},
		drain:     func(context.Context) error { r.Close(); return nil },
		drainWait: 10 * time.Second,
	}, nil
}

// serve is the serve loop of both modes: it listens on addr, prints
// the start lines and serves until SIGINT or SIGTERM, then drains and
// shuts down. It returns nil after a signal.
func (s server) serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.listener != nil {
		ln = s.listener(ln)
	}
	srv := &http.Server{Handler: s.handler}

	// Catch signals before announcing the address: a caller that
	// signals as soon as it reads the listen line must get a drain,
	// not the default handler's abrupt exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The parseable start lines: tests and scripts read the bound
	// address (port 0 resolves to a real port) and, when journaling,
	// the replay outcome from here. The listen line always comes first.
	fmt.Printf("macd: listening on %s\n", ln.Addr())
	for _, line := range s.banner {
		fmt.Printf("macd: %s\n", line)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sg := <-sig:
		log.Printf("macd: %v: draining", sg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), s.drainWait)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		// Jobs still running at the deadline keep draining in the
		// background; report and shut the listener down anyway.
		log.Printf("macd: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	log.Printf("macd: drained, bye")
	return nil
}
