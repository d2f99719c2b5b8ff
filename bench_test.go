package mac3d_test

// One testing.B benchmark per table/figure of the paper, as required
// by the reproduction harness: each bench regenerates its experiment
// (at tiny scale, so `go test -bench=. -benchmem` completes in
// minutes) and reports the headline metric via b.ReportMetric so the
// paper-vs-measured comparison appears directly in bench output.
//
// The full-scale (small/ref) numbers behind EXPERIMENTS.md come from
// `go run ./cmd/experiments -scale small`.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mac3d"
	"mac3d/internal/experiments"
	"mac3d/internal/service"
	"mac3d/internal/workloads"
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	return experiments.NewSuite(experiments.Options{
		Scale: workloads.Tiny,
		Seed:  1,
		// The four-kernel diverse subset keeps bench iterations
		// fast; cmd/experiments runs all twelve.
		Benchmarks: []string{"sg", "bfs", "mg", "is"},
	})
}

// lastCell extracts the last row's metric column as a float where the
// table stores it as formatted text; benches recompute instead, so
// this helper stays unused — kept deliberately absent.

func BenchmarkFig01MissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		tab, err := s.Fig01MissRate()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig01SizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if tab := s.Fig01SizeSweep(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig03BandwidthEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig03BandwidthEfficiency(); len(tab.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table1(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig09RequestRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig09RequestRate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10CoalescingEfficiency(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig10CoalescingEfficiency(); err != nil {
			b.Fatal(err)
		}
		// Recompute the 8-thread average for the report metric.
		var sum float64
		for _, name := range s.Options().Benchmarks {
			res, err := s.MAC(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			sum += res.Coalescer.CoalescingEfficiency()
		}
		eff = 100 * sum / float64(len(s.Options().Benchmarks))
	}
	b.ReportMetric(eff, "avg_coalesce_%") // paper: 52.86
}

func BenchmarkFig11ARQSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig11ARQSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12BankConflicts(b *testing.B) {
	var removed float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig12BankConflicts(); err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, name := range s.Options().Benchmarks {
			w, err := s.MAC(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			wo, err := s.Raw(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(wo.Device.BankConflicts) - int64(w.Device.BankConflicts)
		}
		removed = float64(total)
	}
	b.ReportMetric(removed, "conflicts_removed") // paper: 644M avg/bench at full scale
}

func BenchmarkFig13BandwidthEfficiency(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig13BandwidthEfficiency(); err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, name := range s.Options().Benchmarks {
			w, err := s.MAC(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			sum += 100 * w.Device.BandwidthEfficiency()
		}
		eff = sum / float64(len(s.Options().Benchmarks))
	}
	b.ReportMetric(eff, "bandwidth_eff_%") // paper: 70.35 vs 33.33 raw
}

func BenchmarkFig14BandwidthSaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig14BandwidthSaving(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15TargetsPerEntry(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig15TargetsPerEntry(); err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, name := range s.Options().Benchmarks {
			res, err := s.MAC(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			sum += res.Coalescer.AvgTargetsPerTx()
		}
		avg = sum / float64(len(s.Options().Benchmarks))
	}
	b.ReportMetric(avg, "targets/entry") // paper: 2.13 avg
}

func BenchmarkFig16SpaceOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Fig16SpaceOverhead(); len(tab.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig17Speedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.Fig17Speedup(); err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, name := range s.Options().Benchmarks {
			w, err := s.MAC(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			wo, err := s.Raw(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			if m := wo.RequestLatency.Mean(); m > 0 {
				sum += 100 * (1 - w.RequestLatency.Mean()/m)
			}
		}
		speedup = sum / float64(len(s.Options().Benchmarks))
	}
	b.ReportMetric(speedup, "mem_speedup_%") // paper: 60.73 avg
}

// Ablation benches (beyond the paper).

func BenchmarkAblationFillMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationFillMode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLSQDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationLSQDepth(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationMSHR(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationHBM(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationWindow(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationGrain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		if _, err := s.AblationEnergy(); err != nil {
			b.Fatal(err)
		}
	}
}

// Component micro-benchmarks: the hot paths of the simulator itself.

func BenchmarkPipelineSG(b *testing.B) {
	tr, err := workloads.Generate("sg", workloads.Config{Threads: 8, Seed: 1, Scale: workloads.Tiny})
	if err != nil {
		b.Fatal(err)
	}
	_ = tr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mac3d.Run(mac3d.RunOptions{Workload: "sg"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSGObserved is BenchmarkPipelineSG with the full
// observability layer on (metrics + timeseries + transaction tracing);
// the delta against BenchmarkPipelineSG is the enabled-path overhead.
// The disabled path's overhead is BenchmarkPipelineSG itself versus a
// pre-observability baseline: nil-check-only, required <5%.
func BenchmarkPipelineSGObserved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.Run(mac3d.RunOptions{
			Workload: "sg",
			Observe:  mac3d.ObserveOptions{Enabled: true, SampleInterval: 64, Trace: true},
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Observability == nil || rep.Observability.TraceEvents == 0 {
			b.Fatal("observability not captured")
		}
	}
}

// BenchmarkPipelineSGAudited is BenchmarkPipelineSG with the
// request-lifecycle audit ledger on; the delta against
// BenchmarkPipelineSG is the enabled-path audit overhead. The disabled
// path (nil-ledger checks only) rides the same <5% guard as
// observability: BenchmarkPipelineSG versus its pre-audit baseline.
func BenchmarkPipelineSGAudited(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.Run(mac3d.RunOptions{Workload: "sg", Audit: true})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Audit == nil || !rep.Audit.Ok() {
			b.Fatal("audit report missing or violated")
		}
	}
}

// BenchmarkWarpCoalesce runs the same sg pipeline through the SIMT
// warp-lane frontend; the delta against BenchmarkPipelineSG is the
// cost of warp gathering and mask-group formation.
func BenchmarkWarpCoalesce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.Run(mac3d.RunOptions{Workload: "sg", Design: mac3d.DesignWarp})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Warp == nil || rep.Warp.WarpsFormed == 0 {
			b.Fatal("warp frontend not exercised")
		}
	}
}

// BenchmarkMemCache runs sg through the die-stacked MemCache frontend;
// the delta against BenchmarkPipelineSG is the cost of tag lookups,
// fill tracking and hit-under-miss merging.
func BenchmarkMemCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.Run(mac3d.RunOptions{Workload: "sg", Design: mac3d.DesignMemCache})
		if err != nil {
			b.Fatal(err)
		}
		if rep.MemCache == nil || rep.MemCache.Hits+rep.MemCache.Misses == 0 {
			b.Fatal("memcache frontend not exercised")
		}
	}
}

// benchmarkNUMANoC runs sg on an 8-node system over one interconnect
// topology. BenchmarkNUMANoC measures the ideal crossbar against the
// routed mesh at the same node count: the delta is the cost of
// cycle-stepping the routers, buffers and credits.
func benchmarkNUMANoC(b *testing.B, topo string) {
	opts := mac3d.NUMAOptions{
		Workload: "sg", Threads: 8, Nodes: 8, CoresPerNode: 1,
		NoC: &mac3d.NoCOptions{Topology: topo, LinkLatencyNs: 25},
	}
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.RunNUMA(opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.NoC == nil || rep.NoC.MessagesSent == 0 {
			b.Fatal("no interconnect traffic")
		}
	}
}

func BenchmarkNUMANoC(b *testing.B) {
	for _, topo := range []string{"ideal", "mesh"} {
		b.Run(topo, func(b *testing.B) { benchmarkNUMANoC(b, topo) })
	}
}

// benchmarkCubeFabric runs the sg pipeline with the cube-internal
// vault fabric in one topology × page-policy configuration; the delta
// against the ideal/closed cell is the cost of cycle-stepping the
// intra-cube routers plus the open-row bookkeeping.
func benchmarkCubeFabric(b *testing.B, cube string) {
	for i := 0; i < b.N; i++ {
		rep, err := mac3d.Run(mac3d.RunOptions{Workload: "sg", Cube: cube})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Cube == nil || rep.Cube.Topology == "" {
			b.Fatal("cube report missing")
		}
	}
}

func BenchmarkCubeFabric(b *testing.B) {
	for _, cube := range []string{
		"ideal", "ideal,page=open", "ring", "ring,page=open", "mesh,page=open",
	} {
		b.Run(cube, func(b *testing.B) { benchmarkCubeFabric(b, cube) })
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Generate("bfs", workloads.Config{Threads: 8, Seed: 1, Scale: workloads.Tiny}); err != nil {
			b.Fatal(err)
		}
	}
}

// Service benches: the macd job layer rather than the simulator. A
// no-op runner is substituted via Config.WrapRunner so the numbers
// isolate the queue/journal/result-store machinery; the journal=on
// delta over journal=off is the crash-safety tax per job (two to
// three WAL appends plus one content-addressed result write, no
// fsync). Journal parse/fold micro-benches live in
// internal/service/bench_test.go beside the unexported frame codec.

func benchService(b *testing.B, journalDir string) *service.Service {
	b.Helper()
	s, err := service.New(service.Config{
		Workers:    4,
		QueueDepth: 256,
		JournalDir: journalDir,
		WrapRunner: func(service.RunFunc) service.RunFunc {
			return func(service.Spec) ([]byte, error) { return []byte(`{"report":"bench"}`), nil }
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func benchmarkServiceSubmit(b *testing.B, journal bool) {
	dir := ""
	if journal {
		dir = b.TempDir()
	}
	s := benchService(b, dir)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique seeds defeat the content-addressed cache so every
		// iteration takes the full path.
		st, err := s.SubmitJSON([]byte(fmt.Sprintf(
			`{"kind":"run","run":{"workload":"sg","seed":%d}}`, i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.AwaitResult(ctx, st.ID); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceSubmit(b *testing.B) {
	b.Run("journal=off", func(b *testing.B) { benchmarkServiceSubmit(b, false) })
	b.Run("journal=on", func(b *testing.B) { benchmarkServiceSubmit(b, true) })
}

// TestWriteBenchSnapshot writes the BENCH_N.json perf-trajectory
// snapshot the ROADMAP calls for: a curated subset of the benchmarks
// above, re-run via testing.Benchmark and serialized as JSON so later
// PRs can diff machine-readable numbers instead of bench logs.
// Gated on BENCH_OUT because it re-runs each bench for a full
// benchtime; regenerate with:
//
//	BENCH_OUT=BENCH_7.json go test -run TestWriteBenchSnapshot .
//
// The writer refuses to overwrite an existing snapshot of a different
// number: BENCH_N files are append-only history, and a stale BENCH_OUT
// in the environment once silently clobbered an earlier PR's numbers.
// Each snapshot records its own name, the git commit and the host CPU
// budget, so a diff between two snapshots is interpretable. All JSON
// keys come from struct fields (fixed order) — two runs on the same
// host differ only in the measured numbers.
func TestWriteBenchSnapshot(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=path to write a benchmark snapshot")
	}
	name := filepath.Base(out)
	if prev, err := os.ReadFile(out); err == nil {
		var old struct {
			Snapshot string `json:"snapshot"`
		}
		if json.Unmarshal(prev, &old) != nil || (old.Snapshot != "" && old.Snapshot != name) {
			t.Fatalf("refusing to overwrite %s: it holds snapshot %q, not %q (BENCH_N files are append-only history; bump N)",
				out, old.Snapshot, name)
		}
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkPipelineSG", BenchmarkPipelineSG},
		{"BenchmarkWarpCoalesce", BenchmarkWarpCoalesce},
		{"BenchmarkMemCache", BenchmarkMemCache},
		{"BenchmarkTraceGeneration", BenchmarkTraceGeneration},
		{"BenchmarkCubeFabric/ideal", func(b *testing.B) { benchmarkCubeFabric(b, "ideal") }},
		{"BenchmarkCubeFabric/ring", func(b *testing.B) { benchmarkCubeFabric(b, "ring") }},
		{"BenchmarkCubeFabric/ring,page=open", func(b *testing.B) { benchmarkCubeFabric(b, "ring,page=open") }},
		{"BenchmarkServiceSubmit/journal=off", func(b *testing.B) { benchmarkServiceSubmit(b, false) }},
		{"BenchmarkServiceSubmit/journal=on", func(b *testing.B) { benchmarkServiceSubmit(b, true) }},
		{"BenchmarkNUMANoC/ideal", func(b *testing.B) { benchmarkNUMANoC(b, "ideal") }},
		{"BenchmarkNUMANoC/mesh", func(b *testing.B) { benchmarkNUMANoC(b, "mesh") }},
	}
	type entry struct {
		Name        string             `json:"name"`
		Iterations  int                `json:"iterations"`
		NsPerOp     float64            `json:"ns_per_op"`
		BytesPerOp  int64              `json:"bytes_per_op"`
		AllocsPerOp int64              `json:"allocs_per_op"`
		Metrics     map[string]float64 `json:"metrics,omitempty"`
	}
	snap := struct {
		Snapshot   string  `json:"snapshot"`
		Commit     string  `json:"commit,omitempty"`
		Package    string  `json:"package"`
		Goos       string  `json:"goos"`
		Goarch     string  `json:"goarch"`
		GoVersion  string  `json:"go_version"`
		NumCPU     int     `json:"num_cpu"`
		GoMaxProcs int     `json:"gomaxprocs"`
		Benchmarks []entry `json:"benchmarks"`
	}{
		Snapshot:   name,
		Commit:     gitCommit(),
		Package:    "mac3d",
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		if r.N == 0 {
			t.Fatalf("%s did not run", bench.name)
		}
		e := entry{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		// Extra ReportMetric values (e.g. cycles/sec); encoding/json
		// renders map keys sorted, keeping the file deterministic.
		for k, v := range r.Extra {
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[k] = v
		}
		snap.Benchmarks = append(snap.Benchmarks, e)
		t.Logf("%-40s %d iters  %.0f ns/op", bench.name, r.N, float64(r.T.Nanoseconds())/float64(r.N))
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// gitCommit best-effort resolves the working tree's HEAD commit; the
// snapshot omits the field when git is unavailable.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
