// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator or the macd serving stack, checks every
// result it produces, prints a human-readable table, and ends with one
// JSON line holding the metrics:
//
//	bash perfbench/run.sh --workload paper-compare --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it makes one traced pass, replays each layer alone from
// the stream captured at its input boundary, prints the per-layer cost
// table and writes the spans as a Chrome trace under .bench_build/spans.
// BENCHMARK.json at the repository root documents every workload and
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mac3d/internal/workloads"
)

// benchDir holds everything a run writes, relative to the checkout root.
const benchDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is every metric a --trace 0 run reports, for every workload.
// A workload that does not simulate through a façade call reports the
// simulator metrics of the jobs it served; see BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_cycles_per_s", "cycles/s"},
	{"host_alloc_mb", "MB"},
	{"sim_cycles", "cycles"},
	{"mem_latency_cycles", "cycles"},
	{"coalescing_eff", "fraction"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

// frontends are the coalesce-package designs with per-layer metrics.
var frontends = []string{"raw", "mshr", "warp", "memcache"}

// perLayer is every metric a --trace 1 run reports. A layer a workload
// does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workloads.ns_per_event", "ns/event"},
		{"workloads.allocs_per_event", "allocs/event"},
		{"cpu.ns_per_cycle", "ns/cycle"},
		{"cpu.glue_ns_per_cycle", "ns/cycle"},
		{"cpu.idle_cycle_frac", "fraction"},
		{"cpu.issue_stall_frac", "fraction"},
		{"core.ns_per_request", "ns/request"},
		{"core.allocs_per_request", "allocs/request"},
		{"core.targets_per_tx", "requests/tx"},
		{"core.push_reject_frac", "fraction"},
		{"core.arq_occupancy", "entries"},
	}
	for _, d := range frontends {
		defs = append(defs,
			metricDef{"coalesce." + d + ".ns_per_request", "ns/request"},
			metricDef{"coalesce." + d + ".allocs_per_request", "allocs/request"},
			metricDef{"coalesce." + d + ".targets_per_tx", "requests/tx"},
			metricDef{"coalesce." + d + ".push_reject_frac", "fraction"},
		)
	}
	return append(defs,
		metricDef{"hmc.ns_per_tx", "ns/tx"},
		metricDef{"hmc.allocs_per_tx", "allocs/tx"},
		metricDef{"hmc.bank_conflict_frac", "fraction"},
		metricDef{"hmc.conflict_wait_cycles_per_tx", "cycles/tx"},
		metricDef{"hmc.bandwidth_eff", "fraction"},
		metricDef{"hmc.row_hit_rate", "fraction"},
		metricDef{"hmc.cube.ns_per_tx", "ns/tx"},
		metricDef{"hmc.cube.allocs_per_tx", "allocs/tx"},
		metricDef{"hmc.cube.credit_stall_frac", "fraction"},
		metricDef{"hmc.cube.avg_hops", "hops"},
		metricDef{"noc.ns_per_msg", "ns/msg"},
		metricDef{"noc.allocs_per_msg", "allocs/msg"},
		metricDef{"noc.credit_stall_frac", "fraction"},
		metricDef{"noc.avg_latency_cycles", "cycles"},
		metricDef{"numa.ns_per_cycle", "ns/cycle"},
		metricDef{"numa.glue_ns_per_cycle", "ns/cycle"},
		metricDef{"numa.remote_frac", "fraction"},
		metricDef{"service.admit_us", "us"},
		metricDef{"service.queue_wait_ms", "ms"},
		metricDef{"service.run_ms", "ms"},
		metricDef{"service.finalize_us", "us"},
		metricDef{"service.fetch_us", "us"},
		metricDef{"service.cache_hit_frac", "fraction"},
		metricDef{"service.reject_frac", "fraction"},
		metricDef{"cluster.forward_us", "us"},
		metricDef{"cluster.retry_frac", "fraction"},
		metricDef{"cluster.failovers", "count"},
		metricDef{"loadgen.lag_ms", "ms"},
		metricDef{"glue.frac", "fraction"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}()

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// inject names a layer ("core", "hmc" or "service") whose benchmark
	// shim adds a fixed delay: the per-layer table's self-check.
	inject string
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// notes are printed beside a metric in the human-readable table.
	notes map[string]string
	// spans are written as a Chrome trace after a traced run.
	spans []span
	// self is each layer's host self time in a traced run.
	self map[string]time.Duration
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]string{}, self: map[string]time.Duration{}}
}

// fail records a failed output check.
func (o *outcome) fail(w io.Writer, format string, args ...any) {
	o.failed++
	fmt.Fprintf(w, "CHECK FAILED: "+format+"\n", args...)
}

// runners maps each workload name to its runner. BENCHMARK.json
// records why each one is in the benchmark.
var runners = map[string]func(cfg runConfig, log io.Writer) (*outcome, error){
	"paper-compare": func(cfg runConfig, log io.Writer) (*outcome, error) {
		return runSim(paperCompare(), workloads.Small, cfg, log)
	},
	"frontend-arena": func(cfg runConfig, log io.Writer) (*outcome, error) {
		return runSim(frontendArena(), workloads.Small, cfg, log)
	},
	"routed-fabric": func(cfg runConfig, log io.Writer) (*outcome, error) {
		return runSim(routedFabric(), workloads.Small, cfg, log)
	},
	"macd-serve": runServe,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := fs.Int("seconds", 15, "measured host seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := runners[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *seed == math.MaxUint64 {
		return errors.New("--seconds must be at least 1, --trace 0 or 1, --seed below 2^64-1")
	}
	// The simulator reads a zero seed as "default", so the inputs are
	// drawn from --seed + 1: every --seed, 0 included, gives its own.
	cfg := runConfig{seed: *seed + 1, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(out, "host: %s GOMAXPROCS=%d nproc=%d commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	fmt.Fprintln(out, "model: unvalidated against hardware; no accuracy figure is reported")
	o, err := runWorkload(cfg, out)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(benchDir, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := writeChromeTrace(path, o.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %d written to %s (Chrome trace-event JSON)\n", len(o.spans), path)
		layers := make([]string, 0, len(o.self))
		for l := range o.self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(out, "self time %-20s %12.3f ms\n", l, float64(o.self[l].Nanoseconds())/1e6)
		}
	}
	res := jsonResult{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(out, "%-36s %16s  %-14s %s\n", "metric", "value", "unit", "note")
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-36s %16.6g  %-14s %s\n", d.name, v, d.unit, o.notes[d.name])
	}
	fmt.Fprintf(out, "attempted=%d failed=%d fail_frac=%g\n", o.attempted, o.failed, ratio(float64(o.failed), float64(o.attempted)))
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func workloadNames() []string {
	return []string{"paper-compare", "frontend-arena", "routed-fabric", "macd-serve"}
}

// commit names the checked-out commit when the checkout is a git
// repository, and "unknown" otherwise.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}
