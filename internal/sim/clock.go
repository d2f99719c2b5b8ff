package sim

import "fmt"

// Cycle is an absolute simulation time expressed in CPU clock cycles.
// The CPU clock is the master clock of every model in this repository;
// memory-device timing parameters are converted into CPU cycles once, at
// configuration time.
type Cycle uint64

// Never is a cycle no run reaches: the next event of a component with
// nothing pending.
const Never = ^Cycle(0)

// Clock tracks the current simulation cycle and converts between wall
// time and cycles for a fixed frequency.
type Clock struct {
	now Cycle
	// FreqHz is the clock frequency used for time conversions.
	FreqHz float64
}

// DefaultFreqHz is the CPU frequency used throughout the paper's
// evaluation (Table 1).
const DefaultFreqHz = 3.3e9

// NewClock returns a clock at cycle zero running at freqHz. A zero or
// negative frequency falls back to DefaultFreqHz.
func NewClock(freqHz float64) *Clock {
	if freqHz <= 0 {
		freqHz = DefaultFreqHz
	}
	return &Clock{FreqHz: freqHz}
}

// Now returns the current cycle.
func (c *Clock) Now() Cycle { return c.now }

// Advance moves the clock forward by n cycles and returns the new time.
func (c *Clock) Advance(n Cycle) Cycle {
	c.now += n
	return c.now
}

// Tick advances the clock by one cycle and returns the new time.
func (c *Clock) Tick() Cycle { return c.Advance(1) }

// CyclesForNanos converts a duration in nanoseconds to a cycle count,
// rounding up so that latencies never round to zero.
func (c *Clock) CyclesForNanos(ns float64) Cycle {
	if ns <= 0 {
		return 0
	}
	cycles := ns * c.FreqHz / 1e9
	n := Cycle(cycles)
	if float64(n) < cycles {
		n++
	}
	return n
}

// NanosForCycles converts a cycle count to nanoseconds.
func (c *Clock) NanosForCycles(n Cycle) float64 {
	return float64(n) / c.FreqHz * 1e9
}

// Ticker is the contract implemented by every clocked component
// (aggregator, request builder, vault controller, core, ...). Tick is
// called exactly once per simulation cycle, in a fixed component order,
// with the cycle being executed.
type Ticker interface {
	Tick(now Cycle)
}

// Engine steps a fixed ordered set of Tickers with a shared clock.
// It is intentionally minimal: the simulations in this repository are
// synchronous cycle-stepped models, not event-driven ones.
type Engine struct {
	Clock      *Clock
	components []Ticker
	names      []string
}

// NewEngine returns an engine around clock. A nil clock gets a default
// 3.3 GHz clock.
func NewEngine(clock *Clock) *Engine {
	if clock == nil {
		clock = NewClock(0)
	}
	return &Engine{Clock: clock}
}

// Register appends a component to the tick order under a diagnostic name.
func (e *Engine) Register(name string, t Ticker) {
	if t == nil {
		panic(fmt.Sprintf("sim: Register(%q) with nil Ticker", name))
	}
	e.components = append(e.components, t)
	e.names = append(e.names, name)
}

// Step executes one cycle: each registered component ticks once in
// registration order, then the clock advances. It returns the cycle that
// was executed.
func (e *Engine) Step() Cycle {
	now := e.Clock.Now()
	for _, t := range e.components {
		t.Tick(now)
	}
	e.Clock.Tick()
	return now
}

// Run executes steps cycles, or until done returns true when done is
// non-nil. It returns the number of cycles executed.
func (e *Engine) Run(steps Cycle, done func() bool) Cycle {
	var executed Cycle
	for executed < steps {
		e.Step()
		executed++
		if done != nil && done() {
			break
		}
	}
	return executed
}

// Components returns the registered component names in tick order.
func (e *Engine) Components() []string {
	out := make([]string, len(e.names))
	copy(out, e.names)
	return out
}
