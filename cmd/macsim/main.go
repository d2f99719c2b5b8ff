// Command macsim runs one benchmark through the node/MAC/HMC pipeline
// and prints the full measurement report, optionally comparing the
// designs.
//
// Usage:
//
//	macsim -workload sg [-threads 8] [-scale tiny|small|ref]
//	       [-design mac|raw|mshr|warp|memcache] [-frontend lanes=8,...]
//	       [-compare] [-arq 32] [-seed 1] [-cube ring,page=open,...]
//	       [-metrics-out m.txt] [-timeseries-out ts.csv]
//	       [-trace-out trace.json] [-obs-interval 64]
//	       [-audit] [-chaos-profile mild|storm|delay=0.01:16:32,...]
//	       [-chaos-seed 1] [-retry 3] [-retry-backoff 32]
//	macsim -workload sg -numa 8 [-numa-topology ideal|ring|mesh]
//	       [-threads 8] [-scale ...] [-seed ...] [-design ...]
//	       [-frontend ...] [-cube ...] [-chaos-profile ...] [-retry ...]
//	macsim -list
//
// Every option flag binds directly to a field of one mac3d.RunOptions
// (-numa and -numa-topology to the NUMA options), so a flag value
// reaches the simulator through the same validation as a library call
// or a macd job spec: an out-of-range value such as -obs-interval -5 is
// refused, never silently adjusted.
//
// -numa switches to the multi-node system: one MAC and HMC device per
// node behind the selected interconnect, each node configured by the
// same flags as a single-node run. Flags without a multi-node meaning
// (-in, -compare, -arq, -audit and the observability outputs) are
// refused with exit status 2, as are a negative -numa and
// -numa-topology without -numa. The printed report is deterministic,
// so two invocations can be compared byte-for-byte.
//
// A run with -audit prints the request-lifecycle conservation report
// and exits non-zero if any invariant was violated. -chaos-profile
// composes deterministic stressors (response delay/reorder storms,
// fence storms, submit freezes, transient vault stalls) on top of any
// fault injection; -chaos-seed replays a specific adversarial
// schedule. -retry re-issues poisoned completions at the requester.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mac3d"
)

func main() {
	var opts mac3d.RunOptions
	var numa mac3d.NUMAOptions
	var fabric mac3d.NoCOptions
	flag.StringVar(&opts.Workload, "workload", "", "benchmark to run (see -list)")
	traceFile := flag.String("in", "", "replay a binary trace file (from tracegen) instead of a benchmark")
	flag.IntVar(&opts.Threads, "threads", 8, "hardware threads")
	flag.TextVar(&opts.Scale, "scale", mac3d.ScaleTiny, "input scale: tiny, small or ref")
	flag.TextVar(&opts.Design, "design", mac3d.DesignMAC, "memory path: mac, raw, mshr, warp or memcache")
	flag.StringVar(&opts.Frontend, "frontend", "", "frontend tuning key=value list (lanes, warps, split, cache, line, ways)")
	compare := flag.Bool("compare", false, "run with and without MAC and report the deltas")
	flag.IntVar(&opts.ARQEntries, "arq", 0, "override ARQ entries (default 32)")
	flag.Uint64Var(&opts.Seed, "seed", 1, "deterministic seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	metricsOut := flag.String("metrics-out", "", "write the end-of-run metric registry to this file")
	timeseriesOut := flag.String("timeseries-out", "", "write cycle-sampled timeseries CSV to this file")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	flag.IntVar(&opts.Observe.SampleInterval, "obs-interval", 64, "timeseries sampling interval in cycles")
	flag.BoolVar(&opts.Audit, "audit", false, "enable the request-lifecycle conservation ledger; exit 1 on violations")
	flag.StringVar(&opts.Cube, "cube", "", "cube-internal fabric config: TOPOLOGY[,key=value...] (ideal, ring or mesh; page=closed|open, quad=N, hop/bw/buf/inject/cols)")
	flag.StringVar(&opts.Chaos.Profile, "chaos-profile", "", "chaos profile: preset (mild, storm) or stressor list (delay=0.01:16:32,reorder=0.1,...)")
	flag.Uint64Var(&opts.Chaos.Seed, "chaos-seed", 0, "override the chaos RNG seed (0 keeps the profile's seed)")
	flag.IntVar(&opts.Retry.MaxRetries, "retry", 0, "re-issue poisoned completions up to this many times per request")
	flag.Int64Var(&opts.Retry.BackoffCycles, "retry-backoff", 0, "cycles to wait before each re-issue")
	flag.IntVar(&numa.Nodes, "numa", 0, "run the multi-node system with this many nodes (0: single node)")
	flag.StringVar(&fabric.Topology, "numa-topology", "", "NUMA interconnect: ideal, ring or mesh (default ideal)")
	flag.Parse()

	if *list {
		infos := mac3d.Workloads()
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		for _, w := range infos {
			fmt.Printf("%-10s %s\n", w.Name, w.Description)
		}
		return
	}
	if opts.Workload == "" && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "macsim: -workload or -in is required (try -list)")
		os.Exit(2)
	}
	switch {
	case numa.Nodes < 0:
		fmt.Fprintf(os.Stderr, "macsim: -numa %d is negative; give a node count, or drop -numa for a single node\n", numa.Nodes)
		os.Exit(2)
	case numa.Nodes == 0 && fabric.Topology != "":
		fmt.Fprintln(os.Stderr, "macsim: -numa-topology applies to multi-node runs only; add -numa or drop it")
		os.Exit(2)
	}

	if numa.Nodes > 0 {
		// The multi-node system has no counterpart for these: refuse
		// them by name rather than silently dropping them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "in", "compare", "arq", "audit", "metrics-out", "timeseries-out", "trace-out", "obs-interval":
				fmt.Fprintf(os.Stderr, "macsim: -%s applies to single-node runs only; drop it or -numa\n", f.Name)
				os.Exit(2)
			}
		})
		numa.Workload = opts.Workload
		numa.Threads = opts.Threads
		numa.Seed = opts.Seed
		numa.Scale = opts.Scale
		numa.Design = opts.Design
		numa.Frontend = opts.Frontend
		numa.Cube = opts.Cube
		numa.Chaos = opts.Chaos
		numa.Retry = opts.Retry
		if fabric.Topology != "" {
			numa.NoC = &fabric
		}
		rep, err := mac3d.RunNUMA(numa)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsim:", err)
			os.Exit(1)
		}
		printNUMA(rep)
		return
	}

	if *metricsOut != "" || *timeseriesOut != "" || *traceOut != "" {
		if *compare {
			fmt.Fprintln(os.Stderr, "macsim: observability flags need a single run; drop -compare")
			os.Exit(2)
		}
		opts.Observe.Enabled = true
		opts.Observe.Trace = *traceOut != ""
	}
	writeObs := func(r *mac3d.RunReport) {
		if r.Observability == nil {
			return
		}
		if *metricsOut != "" {
			writeFile(*metricsOut, func(f *os.File) error {
				for _, m := range r.Observability.Metrics {
					if _, err := fmt.Fprintf(f, "%s %g\n", m.Name, m.Value); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if *timeseriesOut != "" {
			writeFile(*timeseriesOut, func(f *os.File) error {
				return r.Observability.WriteTimeseriesCSV(f)
			})
		}
		if *traceOut != "" {
			writeFile(*traceOut, func(f *os.File) error {
				return r.Observability.WriteTrace(f)
			})
		}
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if *compare {
			rep, err := mac3d.CompareTraceFile(opts, f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "macsim:", err)
				os.Exit(1)
			}
			printRun("with MAC", &rep.With)
			printRun("without MAC (raw 16B)", &rep.Without)
			fmt.Printf("coalescing efficiency   %.2f%%\n", 100*rep.CoalescingEfficiency)
			fmt.Printf("memory system speedup   %.2f%%\n", 100*rep.MemorySpeedup)
			exitOnViolations(&rep.With, &rep.Without)
			return
		}
		rep, err := mac3d.RunTraceFile(opts, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsim:", err)
			os.Exit(1)
		}
		printRun(*traceFile, rep)
		writeObs(rep)
		exitOnViolations(rep)
		return
	}

	if *compare {
		rep, err := mac3d.Compare(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "macsim:", err)
			os.Exit(1)
		}
		printRun("with MAC", &rep.With)
		printRun("without MAC (raw 16B)", &rep.Without)
		fmt.Println("comparison")
		fmt.Printf("  coalescing efficiency   %.2f%%\n", 100*rep.CoalescingEfficiency)
		fmt.Printf("  memory system speedup   %.2f%%\n", 100*rep.MemorySpeedup)
		fmt.Printf("  makespan speedup        %.2fx\n", rep.MakespanSpeedup)
		fmt.Printf("  bank conflicts removed  %d\n", rep.BankConflictReduction)
		fmt.Printf("  control bytes saved     %d\n", rep.BandwidthSavingBytes)
		exitOnViolations(&rep.With, &rep.Without)
		return
	}

	rep, err := mac3d.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "macsim:", err)
		os.Exit(1)
	}
	printRun(fmt.Sprintf("%s (%s)", opts.Workload, rep.Design), rep)
	writeObs(rep)
	exitOnViolations(rep)
}

// writeFile creates path, hands it to fn, and dies on any error.
func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "macsim:", err)
		os.Exit(1)
	}
}

func printRun(title string, r *mac3d.RunReport) {
	fmt.Printf("%s\n", title)
	fmt.Printf("  cycles                  %d\n", r.Cycles)
	fmt.Printf("  instructions            %d (IPC %.3f, RPI %.3f)\n", r.Instructions, r.IPC, r.RPI)
	fmt.Printf("  memory requests         %d (+%d SPM hits, access rate %.3f)\n",
		r.MemRequests, r.SPMAccesses, r.MemAccessRate)
	fmt.Printf("  transactions            %d (%d bypassed)\n", r.Transactions, r.Bypassed)
	fmt.Printf("  coalescing efficiency   %.2f%% (avg targets/tx %.2f)\n",
		100*r.CoalescingEfficiency, r.AvgTargetsPerTx)
	sizes := make([]int, 0, len(r.TxBySize))
	for s := range r.TxBySize {
		sizes = append(sizes, int(s))
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Printf("    %4dB transactions     %d\n", s, r.TxBySize[uint32(s)])
	}
	fmt.Printf("  bank conflicts          %d\n", r.BankConflicts)
	fmt.Printf("  data / control bytes    %d / %d (bandwidth efficiency %.2f%%)\n",
		r.DataBytes, r.ControlBytes, 100*r.BandwidthEfficiency)
	fmt.Printf("  avg request latency     %.1f cycles (%.1f ns), p99 %d, max %d\n",
		r.AvgLatencyCycles, r.AvgLatencyNs, r.P99LatencyCycles, r.MaxLatencyCycles)
	fmt.Printf("  achieved bandwidth      %.2f GB/s data, %.2f GB/s link\n", r.DataGBps, r.LinkGBps)
	fmt.Printf("  issue stalls            %d LSQ, %d router, %d fence\n",
		r.StallLSQ, r.StallRouter, r.StallFence)
	if r.ARQOccupancy > 0 {
		fmt.Printf("  avg ARQ occupancy       %.2f entries\n", r.ARQOccupancy)
	}
	if w := r.Warp; w != nil {
		fmt.Printf("  warps                   %d formed, %d suspended\n", w.WarpsFormed, w.WarpsSuspended)
		fmt.Printf("    mask groups           %d same-addr, %d same-block (avg %.2f/warp, max %d)\n",
			w.SameAddrTx, w.SameBlockTx, w.AvgMasksPerWarp, w.MaxMasksPerWarp)
	}
	if m := r.MemCache; m != nil {
		fmt.Printf("  stacked cache           %.2f%% hit rate (%d hits, %d misses, %d merged)\n",
			100*m.HitRate, m.Hits, m.Misses, m.MergedMisses)
		fmt.Printf("    writebacks / direct   %d / %d\n", m.Writebacks, m.DirectAccesses)
	}
	if r.Faults.PoisonedResponses > 0 || r.Faults.RetriedRequests > 0 || r.Faults.FailedRequests > 0 {
		fmt.Printf("  poisoned responses      %d (%d re-issued, %d failed)\n",
			r.Faults.PoisonedResponses, r.Faults.RetriedRequests, r.Faults.FailedRequests)
	}
	if c := r.Chaos; c != nil {
		fmt.Printf("  chaos (%s)\n", c.Profile)
		fmt.Printf("    delay storms          %d (%d responses held)\n", c.DelayStorms, c.DelayedResponses)
		fmt.Printf("    reordered batches     %d\n", c.ReorderedBatches)
		fmt.Printf("    fences injected       %d\n", c.FencesInjected)
		fmt.Printf("    submit freeze cycles  %d\n", c.FreezeCycles)
		fmt.Printf("    vault stalls          %d\n", c.VaultStalls)
	}
	if a := r.Audit; a != nil {
		fmt.Printf("  audit                   issued %d, delivered %d, failed %d, re-issued %d, open %d\n",
			a.Issued, a.Delivered, a.Failed, a.Reissued, a.Open)
		if a.Ok() {
			fmt.Printf("    invariants            all held\n")
		} else {
			fmt.Printf("    VIOLATIONS            %d\n", len(a.Violations)+int(a.OmittedViolations))
			for _, v := range a.Violations {
				fmt.Printf("      %s\n", v)
			}
			if a.OmittedViolations > 0 {
				fmt.Printf("      ... and %d more\n", a.OmittedViolations)
			}
		}
	}
	fmt.Println()
}

// printNUMA renders a NUMA report. Every line derives from report
// fields in a fixed order, so the rendering is deterministic: two runs
// of the same spec print identical bytes.
func printNUMA(r *mac3d.NUMAReport) {
	fmt.Printf("%s on %d nodes, %d threads\n", r.Workload, r.Nodes, r.Threads)
	fmt.Printf("  cycles                  %d\n", r.Cycles)
	fmt.Printf("  memory requests         %d (+%d SPM hits)\n", r.MemRequests, r.SPMAccesses)
	fmt.Printf("  remote requests         %d (%.2f%%)\n", r.RemoteRequests, 100*r.RemoteFraction)
	fmt.Printf("  avg request latency     %.1f cycles (%.1f ns)\n", r.AvgLatencyCycles, r.AvgLatencyNs)
	if r.RetriedRequests > 0 {
		fmt.Printf("  retried requests        %d\n", r.RetriedRequests)
	}
	if n := r.NoC; n != nil {
		fmt.Printf("  noc (%s, %d links)\n", n.Topology, n.Links)
		fmt.Printf("    messages / flits      %d / %d\n", n.MessagesSent, n.FlitsSent)
		fmt.Printf("    avg hops / latency    %.2f / %.1f cycles\n", n.AvgHops, n.AvgNetLatencyCycles)
		fmt.Printf("    inject rejects        %d (%d deliver retries)\n", n.InjectRejects, n.DeliverRetries)
		fmt.Printf("    stall cycles          %d credit, %d chaos\n", n.CreditStallCycles, n.ChaosStallCycles)
	}
	if c := r.Chaos; c != nil {
		fmt.Printf("  chaos (%s)\n", c.Profile)
		fmt.Printf("    link stalls           %d\n", c.LinkStalls)
	}
	for _, n := range r.PerNode {
		fmt.Printf("  node %-2d tx %-8d eff %6.2f%%  conflicts %-6d bw-eff %6.2f%%  remote served/sent %d/%d\n",
			n.Node, n.Transactions, 100*n.CoalescingEfficiency, n.BankConflicts,
			100*n.BandwidthEfficiency, n.RemoteServed, n.RemoteSent)
	}
	fmt.Println()
}

// exitOnViolations terminates with status 1 when an audited report
// carries invariant violations, after everything has been printed.
func exitOnViolations(reports ...*mac3d.RunReport) {
	for _, r := range reports {
		if r.Audit != nil && !r.Audit.Ok() {
			fmt.Fprintln(os.Stderr, "macsim: audit invariant violations detected")
			os.Exit(1)
		}
	}
}
