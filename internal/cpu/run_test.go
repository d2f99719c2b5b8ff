package cpu

import (
	"encoding/json"
	"testing"
)

func TestRunConfigValidate(t *testing.T) {
	if err := DefaultRunConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*RunConfig){
		// NewCoalescer's default case would silently build a MAC.
		"unknown kind":  func(c *RunConfig) { c.Kind = CoalescerKind(len(Kinds())) },
		"negative kind": func(c *RunConfig) { c.Kind = -1 },
		"no cores":      func(c *RunConfig) { c.Node.Cores = 0 },
		"no ARQ":        func(c *RunConfig) { c.MAC.ARQ.Entries = 0 },
		"no MSHRs":      func(c *RunConfig) { c.MSHR.Entries = 0 },
		"odd lanes":     func(c *RunConfig) { c.Warp.Lanes = 3 },
		"no line":       func(c *RunConfig) { c.MemCache.LineBytes = 0 },
		"no links":      func(c *RunConfig) { c.HMC.Links = 0 },
		"bad chaos":     func(c *RunConfig) { c.Chaos.LinkRate = 2 },
		"bad retry":     func(c *RunConfig) { c.Retry.MaxRetries = -1 },
	} {
		cfg := DefaultRunConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunConfigValidateAllocatesNothing: every macd job spec is
// validated (numa specs several times over), so the validator must not
// box the sub-configs it checks.
func TestRunConfigValidateAllocatesNothing(t *testing.T) {
	cfg := DefaultRunConfig()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate allocates %v times", allocs)
	}
}

// TestCoalescerKindMarshalRejectsUnknown: a kind outside Kinds has no
// name, so it can never reach a canonical job spec as a bare number.
func TestCoalescerKindMarshalRejectsUnknown(t *testing.T) {
	if b, err := json.Marshal(CoalescerKind(len(Kinds()))); err == nil {
		t.Fatalf("unknown kind marshalled as %s", b)
	}
}
