package hmc

import "mac3d/internal/obs"

// AttachObs wires the device into a run's observability layer:
// end-of-run gauges into the metrics registry, and queue/link state
// probes into the cycle-sampled timeseries recorder.
func (d *Device) AttachObs(o *obs.Obs) {
	reg := o.Reg()
	reg.Func("hmc.inflight", func() float64 { return float64(d.Pending()) })
	reg.Func("hmc.requests", func() float64 { return float64(d.st.Requests) })
	reg.Func("hmc.bank_conflicts", func() float64 { return float64(d.st.BankConflicts) })
	reg.Func("hmc.link.retries", func() float64 { return float64(d.st.LinkRetries) })
	reg.Func("hmc.link.crc_errors", func() float64 { return float64(d.st.CRCErrors) })
	reg.Func("hmc.link.poisoned", func() float64 { return float64(d.st.PoisonedResponses) })
	reg.Func("hmc.link.token_stalls", func() float64 { return float64(d.st.TokenStalls) })
	if d.openPage {
		reg.Func("hmc.row.hits", func() float64 { return float64(d.st.RowHits) })
		reg.Func("hmc.row.misses", func() float64 { return float64(d.st.RowMisses) })
		reg.Func("hmc.row.conflicts", func() float64 { return float64(d.st.RowConflicts) })
		reg.Func("hmc.row.hit_rate", func() float64 { return d.st.RowHitRate() })
	}
	if d.cube != nil {
		// Cube fabric gauges live under hmc.cube. rather than the
		// fabric's own noc. prefix, which the NUMA interconnect owns.
		reg.Func("hmc.cube.delivered", func() float64 { return float64(d.cube.fab.Stats().Delivered) })
		reg.Func("hmc.cube.stall_cycles", func() float64 {
			credit, chaos := d.cube.fab.Stats().StallCycles()
			return float64(credit + chaos)
		})
	}

	rec := o.Rec()
	rec.Watch("hmc.inflight", func() float64 { return float64(d.Pending()) })
	if d.cube != nil {
		rec.Watch("hmc.cube.in_flight", func() float64 {
			return float64(d.cube.fab.InFlight())
		})
	}
	rec.Watch("hmc.vault.pending_total", func() float64 {
		total := 0
		for _, p := range d.vaultPending {
			total += p
		}
		return float64(total)
	})
	rec.Watch("hmc.vault.pending_max", func() float64 {
		m := 0
		for _, p := range d.vaultPending {
			if p > m {
				m = p
			}
		}
		return float64(m)
	})
	// Cumulative fault-path counters sampled over time show *when*
	// link trouble happened, not just how much.
	rec.Watch("hmc.link.retries", func() float64 { return float64(d.st.LinkRetries) })
	if d.faultsOn && d.cfg.Faults.LinkTokens > 0 {
		rec.Watch("hmc.link.tokens", func() float64 {
			total := 0
			for i := range d.flink {
				total += d.flink[i].tokens
			}
			return float64(total)
		})
	}
}

var _ obs.Attacher = (*Device)(nil)
