package experiments

import (
	"fmt"
	"sort"

	"mac3d/internal/cpu"
	"mac3d/internal/stats"
	"mac3d/internal/workloads"
)

// The coalescer arena: every registered frontend head-to-head on every
// registered workload, ranked. This is the paper's Fig. 10 question —
// how much of the raw request stream's redundancy does the memory path
// recover — asked of five designs at once: the MAC (the paper's ARQ),
// the uncoalesced baseline, a conventional MSHR file, a SIMT warp-lane
// coalescer, and a die-stacked memory-side cache.

// arenaSet returns the benchmarks the arena sweeps. The league table
// is defined over every registered workload — including kernels
// outside the paper's twelve — so when the campaign runs with the
// default benchmark list the arena widens it to workloads.Names().
// An explicit -bench restriction is honoured as-is.
func (s *Suite) arenaSet() []string {
	def := workloads.PaperSet()
	got := s.opts.Benchmarks
	if len(got) != len(def) {
		return got
	}
	for i := range def {
		if got[i] != def[i] {
			return got
		}
	}
	return workloads.Names()
}

// AblationCoalescer runs the coalescer arena: every frontend on every
// arena benchmark at 8 threads, one row per (workload, design) pair,
// followed by per-design league rows ranked best-first on mean
// coalescing efficiency (ties broken by total cycles, then by name).
// The rendered output is byte-deterministic: same options, same bytes.
func (s *Suite) AblationCoalescer() (*stats.Table, error) {
	t := stats.NewTable("Ablation: coalescer frontend arena (league table)",
		"workload", "design", "eff_%", "tx", "tgts/tx", "cycles")
	type agg struct {
		kind   cpu.CoalescerKind
		effSum float64
		runs   uint64
		raw    uint64
		tx     uint64
		cycles uint64
	}
	kinds := cpu.Kinds()
	aggs := make([]*agg, len(kinds))
	for i, k := range kinds {
		aggs[i] = &agg{kind: k}
	}
	for _, name := range s.arenaSet() {
		for i, k := range kinds {
			res, err := s.run(name, 8, design(k))
			if err != nil {
				return nil, err
			}
			c := &res.Coalescer
			t.AddRow(name, k.String(), 100*c.CoalescingEfficiency(),
				c.Transactions, c.AvgTargetsPerTx(), uint64(res.Cycles))
			a := aggs[i]
			a.effSum += c.CoalescingEfficiency()
			a.runs++
			a.raw += c.RawRequests
			a.tx += c.Transactions
			a.cycles += uint64(res.Cycles)
		}
	}
	// League rows: the aggregate tgts/tx is whole-arena raw requests
	// over whole-arena transactions, not a mean of per-run means.
	sort.SliceStable(aggs, func(i, j int) bool {
		ei := aggs[i].effSum / float64(aggs[i].runs)
		ej := aggs[j].effSum / float64(aggs[j].runs)
		if ei != ej {
			return ei > ej
		}
		if aggs[i].cycles != aggs[j].cycles {
			return aggs[i].cycles < aggs[j].cycles
		}
		return aggs[i].kind.String() < aggs[j].kind.String()
	})
	for rank, a := range aggs {
		tgts := 0.0
		if a.tx > 0 {
			tgts = float64(a.raw) / float64(a.tx)
		}
		t.AddRow("(league)", fmt.Sprintf("#%d %s", rank+1, a.kind),
			100*a.effSum/float64(a.runs), a.tx, tgts, a.cycles)
	}
	return t, nil
}
