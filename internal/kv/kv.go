// Package kv is the one grammar of the repository's config strings:
// the chaos and svcchaos profiles, the intra-cube fabric block, the
// frontend tuning and the cluster config all lex through it. A config
// string is a comma-separated list of key=value elements under one
// rule set:
//
//   - whitespace around the string, an element, a key or a value is
//     ignored, and a blank string has no elements;
//   - an empty element (a trailing comma included), an element without
//     "=", an empty key or value, a key outside the block's set and a
//     key given twice are errors.
//
// A block may open with one bare positional element (the cube's
// topology) and may let one key repeat (the cluster's tenant). Value
// syntax and ranges belong to each block; kv supplies the typed value
// helpers they share and, in stressor.go, the NAME=RATE[:PARAM...]
// codec of both chaos profiles.
package kv

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// A Grammar is one block's element set.
type Grammar struct {
	// What names the block at the head of every error, e.g. "hmc: cube".
	What string
	// Head, if set, names the block's bare positional first element;
	// Parse reports that element under this name.
	Head string
	// Keys lists the accepted keys in the order errors name them; at
	// most 64.
	Keys []string
	// Repeat is the one key that may be given more than once, if any.
	Repeat string
}

// Parse lexes s and calls fn with each element's key and value, in
// order. It returns the first rule violation, or the first error fn
// returns, prefixed with g.What. It allocates only to report an error.
func (g Grammar) Parse(s string, fn func(key, val string) error) error {
	rest := strings.TrimSpace(s)
	if rest == "" {
		return nil
	}
	var seen uint64
	for first := true; ; first = false {
		elem, tail, more := strings.Cut(rest, ",")
		elem = strings.TrimSpace(elem)
		key, val, eq := strings.Cut(elem, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case elem == "":
			return fmt.Errorf("%s: empty element in %q", g.What, s)
		case first && g.Head != "":
			key, val = g.Head, elem
		case !eq || key == "" || val == "":
			return fmt.Errorf("%s: %q is not key=value", g.What, elem)
		default:
			i := slices.Index(g.Keys, key)
			if i < 0 {
				return fmt.Errorf("%s: unknown key %q (want %s)", g.What, key, strings.Join(g.Keys, ", "))
			}
			if seen&(1<<i) != 0 && key != g.Repeat {
				return fmt.Errorf("%s: key %q given twice", g.What, key)
			}
			seen |= 1 << i
		}
		if err := fn(key, val); err != nil {
			return fmt.Errorf("%s: %w", g.What, err)
		}
		if !more {
			return nil
		}
		rest = tail
	}
}

// Int parses the value of key as a base-10 integer in [lo, hi].
func Int(key, val string, lo, hi int64) (int64, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < lo || n > hi {
		return 0, fmt.Errorf("%s=%q: want an integer in [%d, %d]", key, val, lo, hi)
	}
	return n, nil
}

// Rate parses the value of key as a probability in [0, 1]; NaN is
// refused.
func Rate(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	// The inverted comparison also refuses NaN.
	if err != nil || !(f >= 0 && f <= 1) {
		return 0, fmt.Errorf("%s=%q: want a rate in [0, 1]", key, val)
	}
	return f, nil
}
