package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"mac3d"
	"mac3d/internal/service"
	"mac3d/internal/stats"
)

// Submitter is the slice of the macd surface the sweep needs: submit a
// JSON job spec, await its report bytes. Both service.Local (embedded,
// in-process) and *service.Client (a remote daemon over HTTP) satisfy
// it, so a campaign runs identically against either.
type Submitter interface {
	SubmitJSON(ctx context.Context, data []byte) (service.JobStatus, error)
	AwaitResult(ctx context.Context, id string) ([]byte, error)
}

// ServiceSweep reproduces the Fig. 10-style coalescing sweep through
// the macd job path: every (benchmark, threads) cell is submitted as a
// job spec and the table is built from the returned report JSON. All
// jobs are submitted up front, so a multi-worker daemon executes the
// sweep in parallel, and repeated sweeps against one daemon are served
// from its result cache.
func ServiceSweep(ctx context.Context, api Submitter, opts Options) (*stats.Table, error) {
	o := opts.withDefaults()
	threads := []int{2, 4, 8}

	type cell struct {
		status service.JobStatus
		err    error
	}
	cells := make(map[string]map[int]*cell)
	for _, name := range o.Benchmarks {
		cells[name] = make(map[int]*cell)
		for _, th := range threads {
			spec := service.Spec{
				Kind: service.KindRun,
				Run: &mac3d.RunOptions{
					Workload: name,
					Threads:  th,
					Seed:     o.Seed,
					Scale:    o.Scale,
				},
			}
			data, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			st, err := api.SubmitJSON(ctx, data)
			cells[name][th] = &cell{status: st, err: err}
		}
	}

	t := stats.NewTable("Figure 10 via macd: coalescing efficiency (%)",
		"benchmark", "2_threads", "4_threads", "8_threads")
	sums := [3]float64{}
	for _, name := range o.Benchmarks {
		var row [3]float64
		for i, th := range threads {
			c := cells[name][th]
			if c.err != nil {
				return nil, fmt.Errorf("experiments: submitting %s/%d: %w", name, th, c.err)
			}
			raw, err := api.AwaitResult(ctx, c.status.ID)
			if err != nil {
				return nil, fmt.Errorf("experiments: job %s (%s/%d): %w", c.status.ID, name, th, err)
			}
			var rep mac3d.RunReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				return nil, fmt.Errorf("experiments: report of %s/%d: %w", name, th, err)
			}
			row[i] = 100 * rep.CoalescingEfficiency
			sums[i] += row[i]
		}
		t.AddRow(name, row[0], row[1], row[2])
	}
	n := float64(len(o.Benchmarks))
	t.AddRow("average", sums[0]/n, sums[1]/n, sums[2]/n)
	return t, nil
}
