package kv

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// A Profile is one chaos profile's stressor table. A profile declares
// each of its stressors once, pointing into the profile value, and
// parsing, defaults, validation and rendering all derive from that.
type Profile struct {
	// What names the profile at the head of every error, e.g. "chaos".
	What      string
	Stressors []Stressor
	// Seed is the profile's seed=N field.
	Seed *uint64
}

// A Stressor is one NAME=RATE[:PARAM...] element: a rate field, a
// probability in [0, 1], and its parameter fields in order.
type Stressor struct {
	Name   string
	Rate   *float64
	Params []Param
}

// A Param is one non-negative integer parameter of a stressor, with
// the default it takes while its stressor is on and it is unset (≤ 0).
type Param interface {
	set(n int64)
	fill()
	negative() bool
	appendTo(b []byte) []byte
}

// P declares a parameter field and its default.
func P[T ~int | ~uint64](field *T, def T) Param { return param[T]{field, def} }

type param[T ~int | ~uint64] struct {
	field *T
	def   T
}

func (p param[T]) set(n int64)              { *p.field = T(n) }
func (p param[T]) negative() bool           { return *p.field < 0 }
func (p param[T]) appendTo(b []byte) []byte { return fmt.Appendf(b, "%d", *p.field) }
func (p param[T]) fill() {
	if *p.field <= 0 {
		*p.field = p.def
	}
}

// ParseProfile parses a chaos profile string into a T. Blank, "off"
// and "none" are the zero profile and a preset name is looked up in
// presets, both without building a codec table; anything else is a
// stressor list plus seed=N read through codec. A stressor given at
// rate 0 keeps its parameters zero, the unset parameters of the others
// take their defaults, and a list with no stressor on parses as the
// zero profile, so that String parses back to the same profile.
func ParseProfile[T any](s string, presets map[string]T, codec func(*T) Profile) (T, error) {
	switch s = strings.TrimSpace(s); s {
	case "", "off", "none":
		return *new(T), nil
	}
	if preset, ok := presets[s]; ok {
		codec(&preset).Defaults()
		return preset, nil
	}
	// p is declared only here: its address escapes into the codec, and
	// the paths above must not allocate.
	var p T
	c := codec(&p)
	g := Grammar{What: c.What}
	for _, st := range c.Stressors {
		g.Keys = append(g.Keys, st.Name)
	}
	g.Keys = append(g.Keys, "seed")
	err := g.Parse(s, func(key, val string) error {
		if key != "seed" {
			return c.Stressors[slices.Index(g.Keys, key)].parse(val)
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", val, err)
		}
		*c.Seed = n
		return nil
	})
	if err != nil {
		return *new(T), err
	}
	if !c.Enabled() {
		*c.Seed = 0
	}
	c.Defaults()
	return p, nil
}

func (st Stressor) parse(val string) error {
	fields := strings.Split(val, ":")
	if len(fields) > 1+len(st.Params) {
		return fmt.Errorf("%s takes at most %d parameters after its rate, got %q", st.Name, len(st.Params), val)
	}
	rate, err := Rate(st.Name, fields[0])
	if err != nil {
		return err
	}
	*st.Rate = rate
	for i, f := range fields[1:] {
		n, err := Int(st.Name, f, 0, math.MaxInt)
		if err != nil {
			return err
		}
		if rate > 0 {
			st.Params[i].set(n)
		}
	}
	return nil
}

// Enabled reports whether any stressor's rate is above 0.
func (p Profile) Enabled() bool {
	for _, st := range p.Stressors {
		if *st.Rate > 0 {
			return true
		}
	}
	return false
}

// Defaults fills the unset parameters of every stressor that is on.
func (p Profile) Defaults() {
	for _, st := range p.Stressors {
		if *st.Rate > 0 {
			for _, prm := range st.Params {
				prm.fill()
			}
		}
	}
}

// Validate rejects a rate outside [0, 1] and a negative parameter.
func (p Profile) Validate() error {
	for _, st := range p.Stressors {
		// The inverted comparison also rejects NaN rates.
		if r := *st.Rate; !(r >= 0 && r <= 1) {
			return fmt.Errorf("%s: %s rate %g outside [0, 1]", p.What, st.Name, r)
		}
		for i, prm := range st.Params {
			if prm.negative() {
				return fmt.Errorf("%s: %s parameter %d is negative", p.What, st.Name, i+1)
			}
		}
	}
	return nil
}

// String renders the profile canonically: "off" when no stressor is
// on, else each stressor that is on with all its parameters, in table
// order, then the seed if it is set.
func (p Profile) String() string {
	if !p.Enabled() {
		return "off"
	}
	var b []byte
	for _, st := range p.Stressors {
		if *st.Rate > 0 {
			b = fmt.Appendf(b, ",%s=%g", st.Name, *st.Rate)
			for _, prm := range st.Params {
				b = prm.appendTo(append(b, ':'))
			}
		}
	}
	if *p.Seed != 0 {
		b = fmt.Appendf(b, ",seed=%d", *p.Seed)
	}
	return string(b[1:])
}
