// Package workloads re-implements the paper's 12 evaluation benchmarks
// as instrumented Go kernels, replacing the RISC-V Spike memory tracer
// of the original infrastructure (see DESIGN.md, substitution table).
//
// Each kernel executes its real algorithm on deterministic synthetic
// inputs, but every load and store to the simulated global address
// space is recorded as a trace event carrying the originating thread,
// the physical address and size, and the count of non-memory
// instructions executed since the thread's previous memory operation.
// The resulting per-thread streams drive the node/MAC/HMC pipeline.
//
// The benchmark set mirrors §5.2: Scatter/Gather (SG), HPCG, SSCA2,
// Grappolo (Louvain clustering), three GAP kernels (BFS, PR, CC), two
// BOTS kernels (NQUEENS, SPARSELU) and three NAS kernels (MG, SP, IS).
package workloads

import (
	"fmt"
	"sort"

	"mac3d/internal/trace"
)

// Scale selects the input size class of a kernel.
type Scale int

const (
	// Tiny inputs run in milliseconds; used by unit tests.
	Tiny Scale = iota
	// Small inputs are the default for benchmarks and experiments.
	Small
	// Ref inputs approximate the paper's working sets (minutes).
	Ref
)

// scaleNames spells each scale, indexed by value.
var scaleNames = [...]string{Tiny: "tiny", Small: "small", Ref: "ref"}

// String names the scale.
func (s Scale) String() string {
	if s < Tiny || s > Ref {
		return fmt.Sprintf("Scale(%d)", int(s))
	}
	return scaleNames[s]
}

// ParseScale resolves a scale name ("tiny", "small" or "ref"). It is
// the one parser of scale names: flags, job specs and JSON all use it.
func ParseScale(name string) (Scale, error) {
	for s, n := range scaleNames {
		if n == name {
			return Scale(s), nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown scale %q (want tiny, small or ref)", name)
}

// MarshalText renders the scale as its name, so Scale fields are
// JSON-stable strings ("tiny") rather than bare ints.
func (s Scale) MarshalText() ([]byte, error) {
	if s < Tiny || s > Ref {
		return nil, fmt.Errorf("workloads: unknown scale %d", int(s))
	}
	return []byte(scaleNames[s]), nil
}

// UnmarshalText parses a scale name.
func (s *Scale) UnmarshalText(text []byte) error {
	v, err := ParseScale(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Config parameterizes trace generation.
type Config struct {
	// Threads is the number of hardware threads (paper: 2/4/8).
	Threads int
	// Seed makes generation deterministic.
	Seed uint64
	// Scale selects the input size class.
	Scale Scale
}

// DefaultConfig returns the paper's 8-thread configuration at Small
// scale.
func DefaultConfig() Config { return Config{Threads: 8, Seed: 1, Scale: Small} }

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	if c.Threads <= 0 || c.Threads > 1<<16 {
		return fmt.Errorf("workloads: Threads must be in [1,65536], got %d", c.Threads)
	}
	if c.Scale < Tiny || c.Scale > Ref {
		return fmt.Errorf("workloads: unknown scale %d", c.Scale)
	}
	return nil
}

// Kernel is one traced benchmark.
type Kernel interface {
	// Name is the registry key and report label (e.g. "sg").
	Name() string
	// Description is a one-line summary for listings.
	Description() string
	// Generate runs the kernel and returns its memory trace.
	Generate(cfg Config) (*trace.Trace, error)
}

var registry = map[string]func() Kernel{}

// Register adds a kernel constructor under its name. It panics on
// duplicates, which indicate an init-order bug.
func Register(name string, ctor func() Kernel) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("workloads: duplicate kernel %q", name))
	}
	registry[name] = ctor
}

// Check reports New's error for a name no kernel is registered under,
// without building the kernel.
func Check(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("workloads: unknown kernel %q (have %v)", name, Names())
	}
	return nil
}

// New returns a fresh instance of the named kernel.
func New(name string) (Kernel, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return registry[name](), nil
}

// Names lists the registered kernels in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperSet returns the 12 benchmark names in the paper's reporting
// order.
func PaperSet() []string {
	return []string{
		"sg", "hpcg", "ssca2", "grappolo",
		"bfs", "pr", "cc",
		"nqueens", "sparselu",
		"mg", "sp", "is",
	}
}

// Generate is a convenience wrapper: construct and run a kernel.
func Generate(name string, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, err := New(name)
	if err != nil {
		return nil, err
	}
	return k.Generate(cfg)
}
