// Package experiments regenerates every table and figure of the
// paper's evaluation (§2 motivation and §5 results) from the simulator
// stack. Each figure function returns a stats.Table whose rows mirror
// the paper's reported series; cmd/experiments renders them.
//
// Runs are cached inside a Suite: Figures 10–15 and 17 share the same
// underlying simulations, so the whole paper regenerates with one
// timed run per (benchmark, threads, machine configuration).
package experiments

import (
	"fmt"
	"sync"

	"mac3d/internal/chaos"
	"mac3d/internal/cpu"
	"mac3d/internal/hmc"
	"mac3d/internal/memreq"
	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// Options configures a reproduction campaign.
type Options struct {
	// Scale selects workload input sizes (default Small — the
	// scaled-down stand-in for the paper's full-size datasets).
	Scale workloads.Scale
	// Seed drives all synthetic inputs.
	Seed uint64
	// Benchmarks restricts the benchmark set (default: the paper's
	// twelve, in reporting order).
	Benchmarks []string
	// Parallel bounds concurrent simulations (default 1; set to
	// runtime.NumCPU() for campaign runs on multicore hosts). Every
	// simulation is deterministic and independent, so results are
	// identical at any parallelism.
	Parallel int
	// Progress, when non-nil, receives one line per completed run;
	// it must be safe for concurrent use when Parallel > 1.
	Progress func(msg string)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.PaperSet()
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	return o
}

// Suite caches traces and simulation results across figures. All
// methods are safe for concurrent use; Prefetch exploits that to run
// a campaign's simulations in parallel.
type Suite struct {
	opts   Options
	sem    chan struct{}
	traces memo[traceKey, *trace.Trace]
	runs   memo[runKey, *cpu.Result]
}

type traceKey struct {
	name    string
	threads int
}

// runKey identifies one timed simulation: a benchmark's trace and the
// machine it runs on. cpu.RunConfig is comparable, so accessors that
// describe one machine in different words share one simulation.
type runKey struct {
	name    string
	threads int
	cfg     cpu.RunConfig
}

// memo computes at most one value per key. Concurrent callers of a key
// share one computation, and an error is cached like a value.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[K]*memoCell[V])
	}
	c, ok := m.cells[k]
	if !ok {
		c = new(memoCell[V])
		m.cells[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v, c.err = compute() })
	return c.v, c.err
}

// NewSuite builds a suite for opts.
func NewSuite(opts Options) *Suite {
	o := opts.withDefaults()
	return &Suite{opts: o, sem: make(chan struct{}, o.Parallel)}
}

// Options returns the effective options.
func (s *Suite) Options() Options { return s.opts }

func (s *Suite) progress(format string, args ...any) {
	if s.opts.Progress != nil {
		s.opts.Progress(fmt.Sprintf(format, args...))
	}
}

// Trace returns (generating and caching on demand) the trace of one
// benchmark at the given thread count.
func (s *Suite) Trace(name string, threads int) (*trace.Trace, error) {
	return s.traces.get(traceKey{name, threads}, func() (*trace.Trace, error) {
		s.progress("generating %s trace (%d threads, %s)", name, threads, s.opts.Scale)
		return workloads.Generate(name, workloads.Config{
			Threads: threads, Seed: s.opts.Seed, Scale: s.opts.Scale,
		})
	})
}

// run executes (and caches) one timed simulation of a benchmark on the
// machine cfg describes. Concurrent callers requesting the same run
// share one execution; distinct runs execute in parallel, bounded by
// Options.Parallel.
func (s *Suite) run(name string, threads int, cfg cpu.RunConfig) (*cpu.Result, error) {
	return s.runs.get(runKey{name, threads, cfg}, func() (*cpu.Result, error) {
		tr, err := s.Trace(name, threads)
		if err != nil {
			return nil, err
		}
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		s.progress("simulating %s (%d threads, %s, arq=%d)", name, threads, cfg.Kind, cfg.MAC.ARQ.Entries)
		res, err := cpu.Run(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, cfg.Kind, err)
		}
		return res, nil
	})
}

// Prefetch executes the standard with/without-MAC runs of every
// configured benchmark concurrently (bounded by Options.Parallel),
// warming the cache so subsequent figure generation is instant.
func (s *Suite) Prefetch() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, name := range s.opts.Benchmarks {
		for _, threads := range []int{2, 4, 8} {
			wg.Add(1)
			go func(name string, threads int) {
				defer wg.Done()
				_, err := s.MAC(name, threads)
				if err == nil && threads == 8 {
					_, err = s.Raw(name, threads)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}(name, threads)
		}
	}
	wg.Wait()
	return firstErr
}

// Each accessor below edits the paper's Table 1 machine
// (cpu.DefaultRunConfig, with MAC) into the one its study needs.

// design returns the Table 1 machine with the given frontend.
func design(k cpu.CoalescerKind) cpu.RunConfig {
	cfg := cpu.DefaultRunConfig()
	cfg.Kind = k
	return cfg
}

// onHBM returns cfg on the HBM device profile (§4.3: same coalescer,
// 1KB rows, 32B minimum bursts).
func onHBM(cfg cpu.RunConfig) cpu.RunConfig {
	cfg.HMC = hmc.HBMConfig()
	return cfg
}

// MAC returns the with-MAC run of a benchmark.
func (s *Suite) MAC(name string, threads int) (*cpu.Result, error) {
	return s.run(name, threads, design(cpu.WithMAC))
}

// Raw returns the without-MAC run of a benchmark.
func (s *Suite) Raw(name string, threads int) (*cpu.Result, error) {
	return s.run(name, threads, design(cpu.WithoutMAC))
}

// MSHR returns the conventional-coalescer run of a benchmark.
func (s *Suite) MSHR(name string, threads int) (*cpu.Result, error) {
	return s.run(name, threads, design(cpu.WithMSHR))
}

// MACWithARQ returns a with-MAC run at a non-default ARQ depth.
func (s *Suite) MACWithARQ(name string, threads, entries int) (*cpu.Result, error) {
	cfg := design(cpu.WithMAC)
	cfg.MAC.ARQ.Entries = entries
	return s.run(name, threads, cfg)
}

// MACWithLSQ returns a with-MAC run at a non-default LSQ depth.
func (s *Suite) MACWithLSQ(name string, threads, depth int) (*cpu.Result, error) {
	cfg := design(cpu.WithMAC)
	cfg.Node.MaxOutstanding = depth
	return s.run(name, threads, cfg)
}

// MACNoFill returns a with-MAC run with the latency-hiding fill mode
// disabled.
func (s *Suite) MACNoFill(name string, threads int) (*cpu.Result, error) {
	cfg := design(cpu.WithMAC)
	cfg.MAC.ARQ.FillMode = false
	return s.run(name, threads, cfg)
}

// MACOnHBM returns a with-MAC run against the HBM device profile.
func (s *Suite) MACOnHBM(name string, threads int) (*cpu.Result, error) {
	return s.run(name, threads, onHBM(design(cpu.WithMAC)))
}

// RawOnHBM returns the uncoalesced run against the HBM profile.
func (s *Suite) RawOnHBM(name string, threads int) (*cpu.Result, error) {
	return s.run(name, threads, onHBM(design(cpu.WithoutMAC)))
}

// MACWithFaults returns a with-MAC run with link-level fault injection
// at the given per-transmission CRC error rate.
func (s *Suite) MACWithFaults(name string, threads int, crcRate float64) (*cpu.Result, error) {
	return s.run(name, threads, s.withCRC(design(cpu.WithMAC), crcRate))
}

// withCRC injects link CRC errors at rate, seeded by the campaign
// seed; rate 0 leaves the fault machinery off.
func (s *Suite) withCRC(cfg cpu.RunConfig, rate float64) cpu.RunConfig {
	if rate != 0 {
		cfg.HMC.Faults.CRCErrorRate = rate
		cfg.HMC.Faults.Seed = s.opts.Seed
	}
	return cfg
}

// MACChaosCube returns an audited with-MAC run under the given chaos
// profile (seed, when non-zero, overriding its own), link CRC error
// rate and requester-side retry policy, on the given cube-internal
// fabric, so the chaos sweep also exercises the cubelink stressor and
// the vault fabric's backpressure paths.
func (s *Suite) MACChaosCube(name string, threads int, profile chaos.Profile, seed uint64, crcRate float64, retry memreq.RetryPolicy, cube hmc.CubeConfig) (*cpu.Result, error) {
	cfg := s.withCRC(design(cpu.WithMAC), crcRate)
	cfg.HMC.Cube = cube
	if seed != 0 {
		profile.Seed = seed
	}
	cfg.Chaos = profile
	cfg.Audit = true
	cfg.Retry = retry
	return s.run(name, threads, cfg)
}

// MACFineBuilder returns a with-MAC run using the 16B-floor builder.
func (s *Suite) MACFineBuilder(name string, threads int) (*cpu.Result, error) {
	cfg := design(cpu.WithMAC)
	cfg.MAC.FineBuilder = true
	return s.run(name, threads, cfg)
}

// MACWithWindow returns a with-MAC run at a non-default coalescing
// window (the §4.3 wide FLIT map/table), optionally on the HBM
// profile whose 1KB rows match the 1KB window.
func (s *Suite) MACWithWindow(name string, threads int, window uint32, hbm bool) (*cpu.Result, error) {
	cfg := design(cpu.WithMAC)
	if hbm {
		cfg = onHBM(cfg)
	}
	cfg.MAC.ARQ.WindowBytes = window
	// A wider window merges more raw requests per entry; scale the
	// entry's target buffer with the window so the study isolates the
	// window effect (a 1KB window entry is a 4x larger hardware entry).
	cfg.MAC.ARQ.MaxTargets = 12 * int(window) / 256
	return s.run(name, threads, cfg)
}

// coalescingEfficiency computes the Fig. 10/11 metric from a MAC run
// alone: raw requests in versus transactions out.
func coalescingEfficiency(res *cpu.Result) float64 {
	return res.Coalescer.CoalescingEfficiency()
}
