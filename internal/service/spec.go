// Package service is the simulator's serving layer: the engine behind
// the macd daemon (cmd/macd). It turns one-shot CLI invocations into a
// multi-tenant simulation service with
//
//   - a versioned, validated, canonicalizable JSON job spec covering
//     every mac3d.RunOptions / mac3d.NUMAOptions request,
//   - a bounded job queue and worker pool with per-job timeouts,
//     cancellation, backpressure and graceful drain,
//   - a content-addressed result cache (canonical spec bytes hashed
//     with SHA-256; identical spec+seed pairs are served the stored,
//     byte-identical report without re-simulating), with single-flight
//     coalescing of identical in-flight jobs — the serving-layer
//     analogue of the paper's request coalescer, and
//   - an HTTP API (POST /v1/jobs, GET /v1/jobs/{id},
//     GET /v1/jobs/{id}/result, GET /v1/healthz, GET /v1/metrics)
//     whose metrics endpoint reuses the internal/obs registry.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"mac3d"
)

// SpecVersion is the job-spec schema version this build writes. Older
// versions still parse as long as they use nothing a later version
// added (specAdditions), and normalization rewrites them to this one.
const SpecVersion = 3

// Kind selects what a job executes.
type Kind string

const (
	// KindRun simulates one workload under one design (mac3d.Run);
	// the result is a mac3d.RunReport.
	KindRun Kind = "run"
	// KindCompare runs with and without MAC (mac3d.Compare); the
	// result is a mac3d.CompareReport.
	KindCompare Kind = "compare"
	// KindNUMA runs the multi-node system (mac3d.RunNUMA); the
	// result is a mac3d.NUMAReport.
	KindNUMA Kind = "numa"
)

// Spec is one job request: a versioned, validated wrapper around the
// façade option types. Two specs that normalize to the same value are
// the same job — they share one cache entry and one execution.
type Spec struct {
	// Version is the spec schema version (0 is read as the current
	// version; older versions are upgraded to SpecVersion).
	Version int `json:"version,omitempty"`
	// Kind selects run, compare or numa.
	Kind Kind `json:"kind"`
	// Run carries the options for run/compare jobs.
	Run *mac3d.RunOptions `json:"run,omitempty"`
	// NUMA carries the options for numa jobs.
	NUMA *mac3d.NUMAOptions `json:"numa,omitempty"`
}

// maxSpecBytes bounds an encoded job spec; anything larger is rejected
// before JSON decoding.
const maxSpecBytes = 1 << 20

// specWire is the shape ParseSpec decodes: a Spec whose numa block may
// also carry "parallel", the host worker count of the former parallel
// NUMA core. It never changed a result, so specs and journal records
// that set it still parse; the value is checked and dropped, and the
// spec hashes as if it were absent. The outer NUMA field shadows
// Spec.NUMA for the "numa" key.
type specWire struct {
	Spec
	NUMA *struct {
		mac3d.NUMAOptions
		Parallel int `json:"parallel,omitempty"`
	} `json:"numa,omitempty"`
}

// ParseSpec decodes, validates and normalizes one JSON job spec. It is
// strict: unknown fields, trailing data, wrong-kinded option blocks,
// out-of-range numerics and unknown workloads are all errors. It never
// panics, whatever the input (there is a fuzz target holding it to
// that).
func ParseSpec(data []byte) (Spec, error) {
	if len(data) > maxSpecBytes {
		return Spec{}, fmt.Errorf("service: spec exceeds %d bytes", maxSpecBytes)
	}
	var w specWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return Spec{}, fmt.Errorf("service: invalid spec: %w", err)
	}
	if err := checkTrailing(dec); err != nil {
		return Spec{}, err
	}
	s, err := w.normalize()
	if err != nil {
		return Spec{}, err
	}
	return s, nil
}

func checkTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("service: trailing data after spec")
	}
	return nil
}

// specAdditions lists what each spec version added. A spec declaring
// an older version that uses a later addition is mislabeled, not
// compatible, and is refused.
var specAdditions = []struct {
	version int
	what    string
	used    func(Spec) bool
}{
	{2, `the NUMA "noc" and "chaos" blocks`, func(s Spec) bool {
		return s.NUMA != nil && (s.NUMA.NoC != nil || s.NUMA.Chaos != (mac3d.ChaosOptions{}))
	}},
	{2, `the warp/memcache designs and "frontend" tuning`, func(s Spec) bool {
		tuned := func(d mac3d.Design, frontend string) bool {
			return d == mac3d.DesignWarp || d == mac3d.DesignMemCache || frontend != ""
		}
		return s.Run != nil && tuned(s.Run.Design, s.Run.Frontend) || s.NUMA != nil && tuned(s.NUMA.Design, s.NUMA.Frontend)
	}},
	{3, `the "cube" block`, func(s Spec) bool {
		return s.Run != nil && s.Run.Cube != "" || s.NUMA != nil && s.NUMA.Cube != ""
	}},
}

// upgrade owns every spec version rule: it checks the declared version
// (0 reads as the current one) against specAdditions, checks and drops
// the numa block's "parallel", and declares the current version.
func (w specWire) upgrade() (Spec, error) {
	s := w.Spec
	if w.NUMA != nil {
		if w.NUMA.Parallel < 0 {
			return s, fmt.Errorf("service: numa \"parallel\" %d is negative", w.NUMA.Parallel)
		}
		s.NUMA = &w.NUMA.NUMAOptions
	}
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Version < 1 || s.Version > SpecVersion {
		return s, fmt.Errorf("service: unsupported spec version %d (this build speaks %d)", s.Version, SpecVersion)
	}
	for _, a := range specAdditions {
		if s.Version < a.version && a.used(s) {
			return s, fmt.Errorf("service: spec version %d predates %s (declare version %d)", s.Version, a.what, SpecVersion)
		}
	}
	s.Version = SpecVersion
	return s, nil
}

// normalize validates the spec and rewrites it to canonical form:
// version upgraded, defaults filled by RunOptions.Normalize or
// NUMAOptions.Normalize.
func (w specWire) normalize() (Spec, error) {
	s, err := w.upgrade()
	if err != nil {
		return s, err
	}
	switch s.Kind {
	case KindRun, KindCompare:
		if s.Run == nil {
			return s, fmt.Errorf("service: %q spec needs a \"run\" options block", s.Kind)
		}
		if s.NUMA != nil {
			return s, fmt.Errorf("service: %q spec must not carry a \"numa\" options block", s.Kind)
		}
		if s.Kind == KindCompare && s.Run.Observe.Enabled {
			return s, fmt.Errorf("service: compare jobs cannot enable observe (each registry belongs to one run; submit two run jobs)")
		}
		run := s.Run.Normalize()
		if err := run.Validate(); err != nil {
			return s, err
		}
		s.Run = &run
	case KindNUMA:
		if s.NUMA == nil {
			return s, fmt.Errorf("service: numa spec needs a \"numa\" options block")
		}
		if s.Run != nil {
			return s, fmt.Errorf("service: numa spec must not carry a \"run\" options block")
		}
		numa := s.NUMA.Normalize()
		if err := numa.Validate(); err != nil {
			return s, err
		}
		s.NUMA = &numa
	case "":
		return s, fmt.Errorf("service: spec is missing \"kind\" (want run, compare or numa)")
	default:
		return s, fmt.Errorf("service: unknown spec kind %q (want run, compare or numa)", s.Kind)
	}
	return s, nil
}

// Canonical renders the normalized spec as canonical JSON: the bytes
// that are hashed for the content-addressed cache. Encoding a Go
// struct is deterministic (fields in declaration order, map-free), so
// equal normalized specs produce equal bytes.
func (s Spec) Canonical() ([]byte, error) {
	n, err := specWire{Spec: s}.normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the cache key: the hex SHA-256 of the canonical spec
// bytes. Seed fields are part of the options, so differently seeded
// runs hash apart.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// execute runs the spec to completion and renders the report as
// deterministic JSON — the bytes stored in the cache and returned to
// every requester of this spec.
func execute(s Spec) ([]byte, error) {
	var rep any
	var err error
	switch s.Kind {
	case KindRun:
		rep, err = mac3d.Run(*s.Run)
	case KindCompare:
		rep, err = mac3d.Compare(*s.Run)
	case KindNUMA:
		rep, err = mac3d.RunNUMA(*s.NUMA)
	default:
		err = fmt.Errorf("service: unknown spec kind %q", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}
