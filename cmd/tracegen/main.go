// Command tracegen generates, inspects and converts memory traces.
//
// Usage:
//
//	tracegen -workload sg -o sg.trace          # write binary trace
//	tracegen -i sg.trace -stats               # summarize a trace
//	tracegen -i sg.trace -text | head          # dump as text
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"mac3d/internal/trace"
	"mac3d/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "benchmark to trace")
	threads := flag.Int("threads", 8, "hardware threads")
	scaleFlag := flag.String("scale", "tiny", "input scale: tiny, small or ref")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	out := flag.String("o", "", "output file for the binary trace")
	in := flag.String("i", "", "input binary trace to inspect")
	showStats := flag.Bool("stats", false, "print trace statistics")
	analyze := flag.Bool("analyze", false, "print the locality/mix analysis")
	text := flag.Bool("text", false, "dump events as text")
	flag.Parse()

	switch {
	case *workload != "":
		scale, err := workloads.ParseScale(*scaleFlag)
		if err != nil {
			fatal(err)
		}
		tr, err := workloads.Generate(*workload, workloads.Config{
			Threads: *threads, Seed: *seed, Scale: scale,
		})
		if err != nil {
			fatal(err)
		}
		if *out == "" {
			if *analyze {
				fmt.Print(trace.Analyze(tr))
			} else {
				printStats(tr)
			}
			return
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w := trace.NewWriter(f)
		if err := w.WriteTrace(tr); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d events to %s\n", tr.Len(), *out)

	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.NewReader(f).ReadTrace()
		if err != nil {
			fatal(err)
		}
		if *text {
			w := bufio.NewWriter(os.Stdout)
			defer w.Flush()
			for _, th := range tr.Threads {
				for _, e := range th {
					fmt.Fprintln(w, trace.FormatText(e))
				}
			}
			return
		}
		_ = *showStats // -stats is the default inspection mode
		if *analyze {
			fmt.Print(trace.Analyze(tr))
			return
		}
		printStats(tr)

	default:
		fmt.Fprintln(os.Stderr, "tracegen: need -workload (generate) or -i (inspect)")
		flag.Usage()
		os.Exit(2)
	}
}

func printStats(tr *trace.Trace) {
	st := trace.ComputeStats(tr)
	fmt.Printf("events        %d\n", st.Events)
	fmt.Printf("loads         %d\n", st.Loads)
	fmt.Printf("stores        %d\n", st.Stores)
	fmt.Printf("atomics       %d\n", st.Atomics)
	fmt.Printf("fences        %d\n", st.Fences)
	fmt.Printf("instructions  %d (RPI %.3f)\n", st.Instructions, st.RPI)
	fmt.Printf("unique rows   %d\n", st.UniqueRows)
	fmt.Printf("footprint     %d bytes\n", st.Footprint)
	fmt.Printf("threads       %d\n", tr.NumThreads())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
