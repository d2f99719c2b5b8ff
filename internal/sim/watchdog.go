package sim

// Watchdog detects a simulation that has stopped making forward
// progress — typically because a response was lost and a thread waits
// forever — long before the driver's MaxCycles guard would trip.
//
// The driver feeds it a monotonically non-decreasing work counter
// (retirements + submissions + deliveries, any unit) once per cycle;
// whenever the counter moves the watchdog re-arms, and once it has
// seen no movement for more than the stall limit it fires. A fired
// watchdog tells the driver to abort with a diagnostic dump instead of
// spinning to MaxCycles.
type Watchdog struct {
	limit        Cycle
	lastWork     uint64
	lastProgress Cycle
	fired        bool
}

// NewWatchdog returns a watchdog that fires after limit cycles without
// progress. A zero limit disables it (Check never fires).
func NewWatchdog(limit Cycle) *Watchdog {
	return &Watchdog{limit: limit}
}

// Limit returns the configured stall limit (0 = disabled).
func (w *Watchdog) Limit() Cycle { return w.limit }

// Check records the work counter at cycle now and reports whether the
// watchdog fires: no progress for more than the stall limit. A nil or
// disabled watchdog never fires.
func (w *Watchdog) Check(now Cycle, work uint64) bool {
	if w == nil || w.limit == 0 {
		return false
	}
	if work != w.lastWork {
		w.lastWork = work
		w.lastProgress = now
		return false
	}
	if now-w.lastProgress > w.limit {
		w.fired = true
		return true
	}
	return false
}

// FiresAt returns the cycle at which Check fires if the work counter
// stays where it is, or Never for a nil or disabled watchdog. A loop
// that skips cycles must not skip past it.
func (w *Watchdog) FiresAt() Cycle {
	if w == nil || w.limit == 0 {
		return Never
	}
	return w.lastProgress + w.limit + 1
}

// Fired reports whether the watchdog has ever fired.
func (w *Watchdog) Fired() bool { return w != nil && w.fired }

// SinceProgress returns how long the simulation has been stalled as of
// cycle now.
func (w *Watchdog) SinceProgress(now Cycle) Cycle {
	if w == nil {
		return 0
	}
	return now - w.lastProgress
}

// Reset re-arms the watchdog for a fresh run.
func (w *Watchdog) Reset() {
	if w == nil {
		return
	}
	w.lastWork = 0
	w.lastProgress = 0
	w.fired = false
}
