package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"mac3d"
	"mac3d/internal/addr"
	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

// simOp is one façade call of a simulation workload.
type simOp struct {
	name   string
	kind   string // "compare", "run" or "numa"
	kernel string
	design mac3d.Design
	cube   string
	// threads is the trace's hardware thread count.
	threads int
	// nodes and coresPerNode shape a numa op's mesh system.
	nodes, coresPerNode int
}

func paperCompare() []simOp {
	var ops []simOp
	for _, k := range []string{"sg", "bfs", "stream", "pchase"} {
		ops = append(ops, simOp{name: "compare/" + k, kind: "compare", kernel: k, threads: 8})
	}
	return ops
}

func frontendArena() []simOp {
	var ops []simOp
	for _, d := range []mac3d.Design{mac3d.DesignMSHR, mac3d.DesignWarp, mac3d.DesignMemCache} {
		for _, k := range []string{"sg", "zipf"} {
			ops = append(ops, simOp{name: "run/" + d.String() + "/" + k, kind: "run", kernel: k, design: d, threads: 8})
		}
	}
	return ops
}

func routedFabric() []simOp {
	return []simOp{
		{name: "run/mac/sg/ring", kind: "run", kernel: "sg", cube: "ring,page=open", threads: 8},
		{name: "numa/mesh8/sg", kind: "numa", kernel: "sg", threads: 32, nodes: 8, coresPerNode: 4},
	}
}

// prepared is an op with its generated inputs.
type prepared struct {
	op   simOp
	tr   *trace.Trace
	data []byte // the trace in the binary codec, for the façade's trace entry points
	// memOps counts the trace's memory accesses that miss the scratchpads:
	// exactly the raw requests the simulator must report.
	memOps uint64
	events int
	gen    cost
}

// setupReps is how many times setup is repeated; setup_s is the median.
const setupReps = 5

// setupSim generates every op's trace setupReps times and keeps the last
// set. It returns the median setup time in seconds.
func setupSim(ops []simOp, seed uint64, scale workloads.Scale, tr *tracer) ([]prepared, float64, error) {
	var times []float64
	var out []prepared
	for rep := 0; rep < setupReps; rep++ {
		out = out[:0]
		runtime.GC() // so a collection of earlier garbage does not land inside the timing
		start := time.Now()
		for _, op := range ops {
			p := prepared{op: op}
			var err error
			t0 := time.Now()
			p.gen = measure(func() {
				p.tr, err = workloads.Generate(op.kernel, workloads.Config{Threads: op.threads, Seed: seed, Scale: scale})
			})
			if err != nil {
				return nil, 0, fmt.Errorf("generating %s: %w", op.name, err)
			}
			if rep == setupReps-1 {
				tr.add(span{Name: "generate " + op.kernel, Layer: "workloads", ID: op.name, Parent: -1,
					Start: t0, End: t0.Add(p.gen.dur)})
			}
			if op.kind != "numa" {
				var buf bytes.Buffer
				w := trace.NewWriter(&buf)
				if err := w.WriteTrace(p.tr); err != nil {
					return nil, 0, err
				}
				if err := w.Flush(); err != nil {
					return nil, 0, err
				}
				p.data = buf.Bytes()
			}
			out = append(out, p)
		}
		times = append(times, time.Since(start).Seconds())
	}
	for i := range out {
		p := &out[i]
		p.events = p.tr.Len()
		for _, th := range p.tr.Threads {
			for _, e := range th {
				if e.Op.IsMemory() && !addr.IsSPM(e.Addr) {
					p.memOps++
				}
			}
		}
	}
	return out, median(times), nil
}

// runStat is the simulated outcome of one design's run inside an op.
type runStat struct {
	design       string
	cycles       uint64
	transactions uint64
	latency      float64
	arqOccupancy float64
}

// opResult is what one façade call reported.
type opResult struct {
	runs       []runStat
	efficiency float64
}

func (r opResult) cycles() uint64 {
	var c uint64
	for _, s := range r.runs {
		c += s.cycles
	}
	return c
}

// runOp makes one op's façade call and checks its output. It returns the
// failed checks as messages; an error means the call itself failed.
func runOp(p prepared, seed uint64) (opResult, []string, error) {
	op := p.op
	var res opResult
	var bad []string
	checkRun := func(r *mac3d.RunReport) {
		res.runs = append(res.runs, runStat{design: r.Design, cycles: r.Cycles, transactions: r.Transactions,
			latency: r.AvgLatencyCycles, arqOccupancy: r.ARQOccupancy})
		if r.MemRequests != p.memOps {
			bad = append(bad, fmt.Sprintf("%s/%s: %d raw requests, trace has %d memory ops", op.name, r.Design, r.MemRequests, p.memOps))
		}
		if r.Transactions > r.MemRequests {
			bad = append(bad, fmt.Sprintf("%s/%s: %d transactions exceed %d raw requests", op.name, r.Design, r.Transactions, r.MemRequests))
		}
		eq1 := ratio(float64(r.DataBytes), float64(r.DataBytes+r.ControlBytes))
		if math.Abs(eq1-r.BandwidthEfficiency) > 1e-12 {
			bad = append(bad, fmt.Sprintf("%s/%s: Eq. 1 gives %v, report says %v", op.name, r.Design, eq1, r.BandwidthEfficiency))
		}
	}
	opts := mac3d.RunOptions{Workload: op.kernel, Seed: seed, Threads: op.threads, Design: op.design, Cube: op.cube}
	switch op.kind {
	case "compare":
		rep, err := mac3d.CompareTraceFile(opts, bytes.NewReader(p.data))
		if err != nil {
			return res, nil, err
		}
		checkRun(&rep.With)
		checkRun(&rep.Without)
		res.efficiency = rep.CoalescingEfficiency
	case "run":
		rep, err := mac3d.RunTraceFile(opts, bytes.NewReader(p.data))
		if err != nil {
			return res, nil, err
		}
		checkRun(rep)
		res.efficiency = rep.CoalescingEfficiency
	case "numa":
		rep, err := mac3d.RunNUMA(numaOptions(op, seed))
		if err != nil {
			return res, nil, err
		}
		var tx uint64
		var effs []float64
		for _, n := range rep.PerNode {
			tx += n.Transactions
			effs = append(effs, n.CoalescingEfficiency)
		}
		res.runs = append(res.runs, runStat{design: op.design.String(), cycles: rep.Cycles, transactions: tx,
			latency: rep.AvgLatencyCycles})
		res.efficiency = mean(effs)
		if rep.MemRequests != p.memOps {
			bad = append(bad, fmt.Sprintf("%s: %d raw requests, trace has %d memory ops", op.name, rep.MemRequests, p.memOps))
		}
		if tx > rep.MemRequests {
			bad = append(bad, fmt.Sprintf("%s: %d transactions exceed %d raw requests", op.name, tx, rep.MemRequests))
		}
	default:
		return res, nil, fmt.Errorf("unknown op kind %q", op.kind)
	}
	return res, bad, nil
}

func numaOptions(op simOp, seed uint64) mac3d.NUMAOptions {
	return mac3d.NUMAOptions{
		Workload: op.kernel, Seed: seed, Scale: mac3d.ScaleSmall, Design: op.design, Cube: op.cube,
		Threads: op.threads, Nodes: op.nodes, CoresPerNode: op.coresPerNode,
		NoC: &mac3d.NoCOptions{Topology: "mesh"},
	}
}

// passResult is one untraced pass over every op of a workload.
type passResult struct {
	wall    time.Duration
	alloc   uint64
	opTimes []time.Duration
	ops     []opResult
	// okOps marks ops whose call succeeded.
	okOps []bool
}

// runPass makes every op's façade call once, untraced, checking each.
func runPass(ps []prepared, seed uint64, o *outcome, log io.Writer) passResult {
	pr := passResult{ops: make([]opResult, len(ps)), okOps: make([]bool, len(ps))}
	before := readMem()
	start := time.Now()
	for i, p := range ps {
		t0 := time.Now()
		res, bad, err := runOp(p, seed)
		pr.opTimes = append(pr.opTimes, time.Since(t0))
		o.attempted++
		switch {
		case err != nil:
			o.fail(log, "%s: %v", p.op.name, err)
		case len(bad) > 0:
			o.fail(log, "%s", bad[0])
		default:
			pr.ops[i], pr.okOps[i] = res, true
		}
	}
	pr.wall = time.Since(start)
	pr.alloc = readMem().bytes - before.bytes
	return pr
}

// runSim runs a simulation workload: setup, then untraced passes for
// --seconds (end-to-end metrics), or one untraced and one traced pass
// plus the layer replays (per-layer metrics).
func runSim(ops []simOp, scale workloads.Scale, cfg runConfig, log io.Writer) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	ps, setupS, err := setupSim(ops, cfg.seed, scale, tr)
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = setupS

	var passes []passResult
	start := time.Now()
	for len(passes) == 0 || (!cfg.trace && time.Since(start) < cfg.seconds) {
		passes = append(passes, runPass(ps, cfg.seed, o, log))
	}
	first := passes[0]
	for k, pr := range passes[1:] {
		for i := range ps {
			if first.okOps[i] && pr.okOps[i] && first.ops[i].cycles() != pr.ops[i].cycles() {
				o.fail(log, "%s: pass %d simulated %d cycles, pass 0 %d (not deterministic)",
					ps[i].op.name, k+1, pr.ops[i].cycles(), first.ops[i].cycles())
			}
		}
	}
	if cfg.trace {
		return o, tracedSim(ps, first, cfg, tr, o, log)
	}

	var walls, rates, allocs []float64
	var total time.Duration
	calls := 0
	for _, pr := range passes {
		var cycles uint64
		for _, r := range pr.ops {
			cycles += r.cycles()
		}
		walls = append(walls, pr.wall.Seconds())
		rates = append(rates, float64(cycles)/pr.wall.Seconds())
		allocs = append(allocs, float64(pr.alloc)/1e6)
		calls += len(pr.opTimes)
		total += pr.wall
	}
	// A job's latency is its op's median over the passes: one sample per
	// op, so the percentile the tail rule picks does not change with the
	// number of passes a run had time for.
	var opMs []float64
	for i := range ops {
		var per []float64
		for _, pr := range passes {
			per = append(per, float64(pr.opTimes[i].Nanoseconds())/1e6)
		}
		opMs = append(opMs, median(per))
	}
	var cycles uint64
	var lats, effs []float64
	for _, r := range first.ops {
		cycles += r.cycles()
		effs = append(effs, r.efficiency)
		for _, s := range r.runs {
			lats = append(lats, s.latency)
		}
	}
	o.values["wall_s"] = median(walls)
	o.values["sim_cycles_per_s"] = median(rates)
	o.values["host_alloc_mb"] = median(allocs)
	o.values["sim_cycles"] = float64(cycles)
	o.values["mem_latency_cycles"] = mean(lats)
	o.values["coalescing_eff"] = mean(effs)
	o.values["job_p50_ms"] = median(opMs)
	t, q := tail(opMs)
	o.values["job_p99_ms"] = t
	o.values["jobs_per_s"] = float64(calls) / total.Seconds()
	o.notes["wall_s"] = fmt.Sprintf("median of %d passes over %d ops (%.3f–%.3f s)",
		len(passes), len(ops), percentile(walls, 0), percentile(walls, 1))
	o.notes["job_p50_ms"] = fmt.Sprintf("a job is one façade call, timed as its median over the passes; n=%d", len(opMs))
	o.notes["job_p99_ms"] = fmt.Sprintf("%s of n=%d (highest percentile with >=%d samples beyond)", tailLabel(q), len(opMs), tailRule)
	return o, nil
}
