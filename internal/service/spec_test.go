package service

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseSpecNormalizesDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"run","run":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != SpecVersion {
		t.Fatalf("version = %d, want %d", s.Version, SpecVersion)
	}
	if s.Run == nil || s.Run.Threads != 8 || s.Run.Seed != 1 {
		t.Fatalf("defaults not made explicit: %+v", s.Run)
	}
}

func TestParseSpecAcceptsFrontendDesigns(t *testing.T) {
	for _, in := range []string{
		`{"kind":"run","run":{"workload":"sg","design":"warp"}}`,
		`{"kind":"run","run":{"workload":"sg","design":"warp","frontend":"lanes=16,warps=8"}}`,
		`{"kind":"run","run":{"workload":"sg","design":"memcache","frontend":"split=0.25,cache=65536"}}`,
		`{"kind":"numa","numa":{"workload":"sg","design":"memcache"}}`,
		`{"kind":"numa","numa":{"workload":"sg","design":"warp","frontend":"lanes=16"}}`,
		`{"kind":"numa","numa":{"workload":"sg","design":"memcache","frontend":"split=0.25"}}`,
	} {
		s, err := ParseSpec([]byte(in))
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if s.Version != SpecVersion {
			t.Errorf("ParseSpec(%q): version %d, want %d", in, s.Version, SpecVersion)
		}
	}
}

func TestHashEquivalentSpecsAgree(t *testing.T) {
	// Omitted defaults and explicit defaults are the same job.
	a, err := ParseSpec([]byte(`{"kind":"run","run":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec([]byte(`{"version":1,"kind":"run","run":{"workload":"sg","threads":8,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equivalent specs hash apart: %s vs %s", ha, hb)
	}
	ca, _ := a.Canonical()
	cb, _ := b.Canonical()
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical bytes differ:\n%s\n%s", ca, cb)
	}
}

// TestSpecHashesPinned pins the cache key of every valid spec in the
// FuzzParseSpec corpus (seeds and testdata), plus a numa spec setting
// every shared block. A key that moves orphans every cached result and
// journal record written under the old one.
func TestSpecHashesPinned(t *testing.T) {
	for _, c := range []struct{ spec, hash string }{
		{`{"kind":"run","run":{"workload":"sg"}}`,
			"ca3bd5127b8bbd2516e04894b62441af3a585d4dd524140ac980e4ce8210d72b"},
		{`{"kind":"compare","run":{"workload":"bfs","seed":7,"threads":4}}`,
			"969c9276abf7c7356a04582fcce8a0965c8a2abec591e30139dec808958b3216"},
		{`{"kind":"numa","numa":{"workload":"is","nodes":2,"cores_per_node":4}}`,
			"247dc34af058771bb51c3b21a2e7f54c93f6a7ef33ca2052954231e783b9f5fc"},
		{`{"version":1,"kind":"run","run":{"workload":"mg","scale":"tiny","design":"mshr"}}`,
			"ed0c506b245b88e9688e4759d37715d3994df7003d905ff46a24d69ee3bfb0e5"},
		{`{"kind":"run","run":{"workload":"sg","observe":{"enabled":true,"sample_interval":64,"trace":true}}}`,
			"4fc733292c24c64e0964e35bdb5818a70736f33774f6a3205da54f8524baf70e"},
		{`{"kind":"run","run":{"workload":"sg","faults":{"crc_error_rate":0.01,"link_fail_rate":0.001}}}`,
			"b2392262fe8c3137d5c18c2fe337f11e70c771ae89f4f1786930fca74ccd75b2"},
		{`{"kind":"run","run":{"workload":"sg","chaos":{"profile":"mild"},"retry":{"max_retries":3}}}`,
			"d41d4630c428f57e6462daee0f03c7b90b59481904049733e0ddae44bb1aa8cc"},
		{`{"kind":"run","run":{"workload":"sg","cube":"ring,page=open"}}`,
			"bee4b309f317b61ed96bd63008c443e4f02123dd4f72d762c47883e723f7290a"},
		{`{"kind":"numa","numa":{"workload":"sg","cube":"mesh,quad=2","chaos":{"profile":"cubelink=0.01:64"}}}`,
			"762699568ba1a48bc2d172336cfbaf073926a98df1f1477cce9efc264a562511"},
		{`{"version":3,"kind":"numa","numa":{"workload":"sg","nodes":8,"noc":{"topology":"mesh"},"parallel":4}}`,
			"34b273d2d20e39de609c66bd0ce388500dc7d8f2ef564d6917cdb8030c373e13"},
		{`{"kind":"compare","run":{"workload":"bfs","seed":9}}`,
			"33828514d1204b2a82f45d92651c7c01d3f850949d2a9604cfadc0a0fe1c148d"},
		{`{"kind":"numa","numa":{"workload":"is","nodes":4}}`,
			"f26eac72280f1611a6495c31da9ab55af47086116d4becae71bb1f1f7850cc29"},
		{`{"kind":"numa","numa":{"workload":"sg","nodes":8,"cores_per_node":1,"noc":{"topology":"mesh","mesh_cols":4},"chaos":{"profile":"link=0.01:100"}}}`,
			"6b802c72f917ce9136a188f6a6d00e2cc71bca27216cbc49434f94826467e0e5"},
		{`{"kind":"numa","numa":{"workload":"sg","nodes":4,"cube":"ring,page=open","chaos":{"profile":"link=0.01:40","seed":7},"retry":{"max_retries":2},"noc":{"topology":"mesh"}}}`,
			"384ddd59e115ecee56e6110f8269a66701d5801351780726496b7979e811249f"},
	} {
		s, err := ParseSpec([]byte(c.spec))
		if err != nil {
			t.Errorf("ParseSpec(%s): %v", c.spec, err)
			continue
		}
		if h, err := s.Hash(); err != nil || h != c.hash {
			t.Errorf("Hash(%s) = %s (err %v), want %s", c.spec, h, err, c.hash)
		}
	}
}

func TestHashSeparatesSeedsAndKinds(t *testing.T) {
	base := `{"kind":"run","run":{"workload":"sg","seed":%s}}`
	s1, err := ParseSpec([]byte(strings.Replace(base, "%s", "1", 1)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec([]byte(strings.Replace(base, "%s", "2", 1)))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s1.Hash()
	h2, _ := s2.Hash()
	if h1 == h2 {
		t.Fatal("different seeds must hash apart")
	}
	cmp, err := ParseSpec([]byte(`{"kind":"compare","run":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	hr, _ := s1.Hash()
	hc, _ := cmp.Hash()
	if hr == hc {
		t.Fatal("run and compare of the same options must hash apart")
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := map[string]string{
		"empty":             ``,
		"not json":          `{`,
		"trailing data":     `{"kind":"run","run":{"workload":"sg"}} extra`,
		"unknown field":     `{"kind":"run","run":{"workload":"sg","bogus":1}}`,
		"unknown top field": `{"kind":"run","run":{"workload":"sg"},"priority":9}`,
		"missing kind":      `{"run":{"workload":"sg"}}`,
		"unknown kind":      `{"kind":"sweep","run":{"workload":"sg"}}`,
		"bad version":       `{"version":4,"kind":"run","run":{"workload":"sg"}}`,
		"v1 with noc":       `{"version":1,"kind":"numa","numa":{"workload":"sg","noc":{"topology":"ring"}}}`,
		"v1 with chaos":     `{"version":1,"kind":"numa","numa":{"workload":"sg","chaos":{"profile":"link=0.01"}}}`,
		"v1 warp design":    `{"version":1,"kind":"run","run":{"workload":"sg","design":"warp"}}`,
		"v1 memcache numa":  `{"version":1,"kind":"numa","numa":{"workload":"sg","design":"memcache"}}`,
		"v1 with frontend":  `{"version":1,"kind":"run","run":{"workload":"sg","frontend":"lanes=16"}}`,
		"v1 with cube":      `{"version":1,"kind":"run","run":{"workload":"sg","cube":"ring"}}`,
		"v2 with cube run":  `{"version":2,"kind":"run","run":{"workload":"sg","cube":"ring,page=open"}}`,
		"v2 with cube numa": `{"version":2,"kind":"numa","numa":{"workload":"sg","cube":"mesh"}}`,
		"bad cube":          `{"kind":"run","run":{"workload":"sg","cube":"torus"}}`,
		"bad cube key":      `{"kind":"run","run":{"workload":"sg","cube":"ring,warp=2"}}`,
		"numa bad cube":     `{"kind":"numa","numa":{"workload":"sg","cube":"mesh,cols=7"}}`,
		"bad frontend":      `{"kind":"run","run":{"workload":"sg","design":"warp","frontend":"lanes=3"}}`,
		"frontend unknown":  `{"kind":"run","run":{"workload":"sg","frontend":"bogus=1"}}`,
		"numa bad frontend": `{"kind":"numa","numa":{"workload":"sg","design":"memcache","frontend":"split=2"}}`,
		"noc bad topology":  `{"kind":"numa","numa":{"workload":"sg","noc":{"topology":"torus"}}}`,
		"noc node mismatch": `{"kind":"numa","numa":{"workload":"sg","nodes":4,"noc":{"topology":"ring","nodes":8}}}`,
		"noc bad cols":      `{"kind":"numa","numa":{"workload":"sg","nodes":8,"cores_per_node":1,"noc":{"topology":"mesh","mesh_cols":3}}}`,
		"noc tiny buffers":  `{"kind":"numa","numa":{"workload":"sg","noc":{"topology":"ring","buffer_flits":2}}}`,
		"numa bad chaos":    `{"kind":"numa","numa":{"workload":"sg","chaos":{"profile":"quake=0.5"}}}`,
		"missing options":   `{"kind":"run"}`,
		"wrong block":       `{"kind":"run","numa":{"workload":"sg"}}`,
		"numa wrong block":  `{"kind":"numa","run":{"workload":"sg"}}`,
		"unknown workload":  `{"kind":"run","run":{"workload":"nope"}}`,
		"missing workload":  `{"kind":"run","run":{"seed":3}}`,
		"negative threads":  `{"kind":"run","run":{"workload":"sg","threads":-1}}`,
		"negative cycles":   `{"kind":"run","run":{"workload":"sg","watchdog_cycles":0,"max_outstanding":-4}}`,
		"huge threads":      `{"kind":"run","run":{"workload":"sg","threads":4294967552}}`,
		"rate above one":    `{"kind":"run","run":{"workload":"sg","faults":{"crc_error_rate":1.5}}}`,
		"negative rate":     `{"kind":"run","run":{"workload":"sg","faults":{"link_fail_rate":-0.1}}}`,
		"compare observe":   `{"kind":"compare","run":{"workload":"sg","observe":{"enabled":true}}}`,
		"numa zero nodes":   `{"kind":"numa","numa":{"workload":"sg","nodes":-2}}`,
		"numa huge nodes":   `{"kind":"numa","numa":{"workload":"sg","nodes":100000}}`,
		"numa bad latency":  `{"kind":"numa","numa":{"workload":"sg","link_latency_ns":-5}}`,
		"negative parallel": `{"kind":"numa","numa":{"workload":"sg","parallel":-1}}`,
		"run parallel":      `{"kind":"run","run":{"workload":"sg","parallel":4}}`,
		"bad scale":         `{"kind":"run","run":{"workload":"sg","scale":"huge"}}`,
		"bad design":        `{"kind":"run","run":{"workload":"sg","design":"quantum"}}`,
		"string where int":  `{"kind":"run","run":{"workload":"sg","threads":"many"}}`,
		"array spec":        `[{"kind":"run"}]`,
		"oversized number":  `{"kind":"run","run":{"workload":"sg","faults":{"crc_error_rate":1e999}}}`,
	}
	for name, in := range cases {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: ParseSpec(%q) accepted, want error", name, in)
		}
	}
}

func TestParseSpecAcceptsAllKinds(t *testing.T) {
	cases := []string{
		`{"kind":"run","run":{"workload":"bfs","threads":4,"design":"mshr","scale":"tiny"}}`,
		`{"kind":"compare","run":{"workload":"is","seed":7}}`,
		`{"kind":"numa","numa":{"workload":"sg","nodes":2,"cores_per_node":4}}`,
		`{"kind":"run","run":{"workload":"sg","observe":{"enabled":true,"sample_interval":64}}}`,
		`{"kind":"run","run":{"workload":"sg","watchdog_cycles":-1}}`,
		`{"kind":"numa","numa":{"workload":"sg","nodes":8,"cores_per_node":1,"noc":{"topology":"ring","link_latency_ns":10}}}`,
		`{"kind":"numa","numa":{"workload":"sg","nodes":8,"cores_per_node":1,"noc":{"topology":"mesh","mesh_cols":4,"buffer_flits":32}}}`,
		`{"kind":"numa","numa":{"workload":"sg","chaos":{"profile":"link=0.02:100","seed":9}}}`,
		`{"kind":"run","run":{"workload":"sg","cube":"ring,page=open"}}`,
		`{"kind":"compare","run":{"workload":"bfs","cube":"mesh,quad=2"}}`,
		`{"kind":"numa","numa":{"workload":"sg","cube":"mesh,page=open","chaos":{"profile":"cubelink=0.01:64","seed":5}}}`,
	}
	for _, in := range cases {
		s, err := ParseSpec([]byte(in))
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if _, err := s.Hash(); err != nil {
			t.Errorf("Hash(%q): %v", in, err)
		}
	}
}

// TestSpecV1UpgradesToCurrent checks the compatibility contract of the
// version bump: a v1 spec that does not use the v2-only blocks is the
// same job under either version declaration — same normalized version,
// same cache hash.
func TestSpecV1UpgradesToCurrent(t *testing.T) {
	v1, err := ParseSpec([]byte(`{"version":1,"kind":"numa","numa":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != SpecVersion {
		t.Fatalf("v1 spec normalized to version %d, want %d", v1.Version, SpecVersion)
	}
	v2, err := ParseSpec([]byte(`{"version":2,"kind":"numa","numa":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := v1.Hash()
	h2, _ := v2.Hash()
	if h1 != h2 {
		t.Fatalf("v1 and v2 spellings of the same job hash apart: %s vs %s", h1, h2)
	}
}

// TestSpecParallelDropped: "parallel", the worker count of the former
// parallel NUMA core, still parses in a numa block and hashes like the
// same spec without it.
func TestSpecParallelDropped(t *testing.T) {
	with, err := ParseSpec([]byte(`{"kind":"numa","numa":{"workload":"sg","parallel":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	without, err := ParseSpec([]byte(`{"kind":"numa","numa":{"workload":"sg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	hw, _ := with.Hash()
	hwo, _ := without.Hash()
	if hw != hwo {
		t.Fatalf("parallel changed the hash: %s vs %s", hw, hwo)
	}
}

// TestSpecNoCRoundTrip holds the canonical form of a spec with the v2
// interconnect and chaos blocks to the same fixed-point property the
// plain specs have, with the NoC defaults made explicit.
func TestSpecNoCRoundTrip(t *testing.T) {
	in := `{"kind":"numa","numa":{"workload":"sg","nodes":8,"cores_per_node":1,` +
		`"noc":{"topology":"mesh"},"chaos":{"profile":"link=0.01","seed":3}}}`
	s, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	n := s.NUMA.NoC
	if n == nil || n.Topology != "mesh" || n.LinkLatencyNs != 25 ||
		n.LinkBandwidth != 2 || n.BufferFlits != 64 || n.InjectDepth != 8 {
		t.Fatalf("NoC defaults not made explicit: %+v", n)
	}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(c1)
	if err != nil {
		t.Fatalf("canonical bytes do not re-parse: %v\n%s", err, c1)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonicalization not idempotent:\n%s\n%s", c1, c2)
	}
}

func TestParseSpecSizeLimit(t *testing.T) {
	big := append([]byte(`{"kind":"run","run":{"workload":"`), bytes.Repeat([]byte("x"), maxSpecBytes)...)
	big = append(big, []byte(`"}}`)...)
	if _, err := ParseSpec(big); err == nil {
		t.Fatal("oversized spec accepted")
	}
}

func TestCanonicalIsIdempotent(t *testing.T) {
	s, err := ParseSpec([]byte(`{"kind":"numa","numa":{"workload":"mg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Re-parsing the canonical form must be a fixed point.
	s2, err := ParseSpec(c1)
	if err != nil {
		t.Fatalf("canonical bytes do not re-parse: %v\n%s", err, c1)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonicalization not idempotent:\n%s\n%s", c1, c2)
	}
}
