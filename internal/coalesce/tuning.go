package coalesce

import (
	"fmt"
	"strconv"
	"strings"

	"mac3d/internal/kv"
)

// Tuning is the parsed form of the frontend tuning string accepted by
// `macsim -frontend` and the job spec's "frontend" field: an ordered
// comma-separated key=value list adjusting the Warp and MemCache
// frontends away from their defaults. The zero value changes nothing.
//
// Keys: lanes (warp width), warps (warp scoreboard slots), split
// (memcache direct fraction, 0..1), cache (memcache capacity bytes),
// line (memcache line bytes), ways (memcache associativity).
type Tuning struct {
	// Lanes and Warps tune the Warp frontend; 0 leaves the default.
	Lanes int
	Warps int
	// Split is the MemCache direct fraction; SplitSet gates it so an
	// explicit split=0 (all cached) is distinguishable from unset.
	Split    float64
	SplitSet bool
	// CacheBytes, LineBytes and Ways tune the MemCache geometry; 0
	// leaves the defaults.
	CacheBytes uint64
	LineBytes  uint32
	Ways       int
}

// maxTuningLen bounds the accepted tuning string.
const maxTuningLen = 256

// tuningGrammar is the tuning string's element set.
var tuningGrammar = kv.Grammar{What: "coalesce: tuning",
	Keys: []string{"lanes", "warps", "split", "cache", "line", "ways"}}

// ParseTuning parses a frontend tuning string (see internal/kv). The
// empty string is the zero Tuning. Syntax and range errors are
// reported; semantic constraints (power-of-two lane counts, cache
// geometry) are enforced by the frontend configs the tuning is applied
// to.
func ParseTuning(s string) (Tuning, error) {
	var t Tuning
	if len(s) > maxTuningLen {
		return t, fmt.Errorf("coalesce: tuning string longer than %d bytes", maxTuningLen)
	}
	err := tuningGrammar.Parse(s, func(k, v string) error {
		switch k {
		case "split":
			f, err := kv.Rate(k, v)
			if err != nil {
				return err
			}
			t.Split, t.SplitSet = f, true
			return nil
		case "cache":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 || n > 1<<32 {
				return fmt.Errorf("cache=%q: want bytes in [1, 2^32]", v)
			}
			t.CacheBytes = n
			return nil
		}
		n, err := kv.Int(k, v, 1, 1<<16)
		if err != nil {
			return err
		}
		switch k {
		case "lanes":
			t.Lanes = int(n)
		case "warps":
			t.Warps = int(n)
		case "line":
			t.LineBytes = uint32(n)
		case "ways":
			t.Ways = int(n)
		}
		return nil
	})
	if err != nil {
		return Tuning{}, err
	}
	return t, nil
}

// String renders the tuning in canonical form: set keys only, fixed
// order. ParseTuning(t.String()) round-trips.
func (t Tuning) String() string {
	var parts []string
	if t.Lanes != 0 {
		parts = append(parts, fmt.Sprintf("lanes=%d", t.Lanes))
	}
	if t.Warps != 0 {
		parts = append(parts, fmt.Sprintf("warps=%d", t.Warps))
	}
	if t.SplitSet {
		parts = append(parts, "split="+strconv.FormatFloat(t.Split, 'g', -1, 64))
	}
	if t.CacheBytes != 0 {
		parts = append(parts, fmt.Sprintf("cache=%d", t.CacheBytes))
	}
	if t.LineBytes != 0 {
		parts = append(parts, fmt.Sprintf("line=%d", t.LineBytes))
	}
	if t.Ways != 0 {
		parts = append(parts, fmt.Sprintf("ways=%d", t.Ways))
	}
	return strings.Join(parts, ",")
}

// ApplyWarp overlays the tuning's warp knobs onto cfg.
func (t Tuning) ApplyWarp(cfg WarpConfig) WarpConfig {
	if t.Lanes != 0 {
		cfg.Lanes = t.Lanes
	}
	if t.Warps != 0 {
		cfg.MaxWarps = t.Warps
	}
	return cfg
}

// ApplyMemCache overlays the tuning's memcache knobs onto cfg.
func (t Tuning) ApplyMemCache(cfg MemCacheConfig) MemCacheConfig {
	if t.SplitSet {
		cfg.DirectFraction = t.Split
	}
	if t.CacheBytes != 0 {
		cfg.CacheBytes = t.CacheBytes
	}
	if t.LineBytes != 0 {
		cfg.LineBytes = t.LineBytes
	}
	if t.Ways != 0 {
		cfg.Ways = t.Ways
	}
	return cfg
}
