// Command experiments regenerates every table and figure of the MAC
// paper's evaluation from the simulator stack.
//
// Usage:
//
//	experiments [-scale tiny|small|ref] [-seed N] [-exp fig10,...]
//	            [-bench sg,bfs,...] [-csv] [-quiet]
//	experiments -macd http://127.0.0.1:8080 [-scale ...] [-bench ...]
//
// By default it runs every experiment at small scale over the paper's
// twelve benchmarks and prints aligned tables, one per figure, with
// the paper's headline numbers for comparison. With -macd, the Fig. 10
// coalescing sweep is submitted to a running macd daemon as job specs
// instead of simulating in process — repeated sweeps hit the daemon's
// result cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mac3d/internal/experiments"
	"mac3d/internal/service"
	"mac3d/internal/workloads"
)

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: tiny, small or ref")
	seed := flag.Uint64("seed", 1, "deterministic seed for synthetic inputs")
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all); see -list")
	benchFlag := flag.String("bench", "", "comma-separated benchmark subset (default: the paper's 12)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent simulations")
	outdir := flag.String("outdir", "", "also write one CSV file per experiment to this directory")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	list := flag.Bool("list", false, "list experiment ids and exit")
	macd := flag.String("macd", "", "run the coalescing sweep through a macd daemon at this base URL instead of in process")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n          paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	scale, err := workloads.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := experiments.Options{Scale: scale, Seed: *seed, Parallel: *parallel}
	if *benchFlag != "" {
		opts.Benchmarks = strings.Split(*benchFlag, ",")
	}
	if !*quiet {
		opts.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "  .. %s\n", msg) }
	}

	if *macd != "" {
		client := &service.Client{BaseURL: *macd}
		t0 := time.Now()
		tab, err := experiments.ServiceSweep(context.Background(), client, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Print(tab.Render())
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [sweep via %s done in %s]\n", *macd, time.Since(t0).Round(time.Millisecond))
		}
		return
	}

	suite := experiments.NewSuite(opts)
	if *parallel > 1 {
		// Warm the shared with/without-MAC runs concurrently.
		if err := suite.Prefetch(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	selected := experiments.All()
	if *expFlag != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.Find(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		tab, err := e.Run(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n\n", e.Paper)
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Print(tab.Render())
		}
		if *outdir != "" {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  [%s done in %s]\n", e.ID, time.Since(t0).Round(time.Millisecond))
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\nall experiments done in %s\n", time.Since(start).Round(time.Millisecond))
	}
}
