package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into a layer. Spans of one job or one
// simulation share an ID; Parent is the index of the enclosing span in
// the tracer, or -1 for a root.
type span struct {
	Name   string
	Layer  string
	ID     string
	Parent int
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	spans []span
}

// add records a finished span and returns its index (for children).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may nest, overlap one another or stick out of
// the parent; each instant inside the parent is subtracted at most once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// chromeEvent is one Chrome trace-event record (the JSON Perfetto and
// chrome://tracing load).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace renders spans as trace events, one track (tid) per layer
// in order of first appearance. Timestamps are microseconds since the
// earliest span; the job or simulation ID rides in args so Perfetto can
// follow one job from router to shard to runner.
func chromeTrace(spans []span) []chromeEvent {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	tracks := map[string]int{}
	var events []chromeEvent
	for _, s := range spans {
		tid, ok := tracks[s.Layer]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Layer] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": s.Layer}})
		}
		args := map[string]string{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Name
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return events
}

// writeChromeTrace writes spans to path as a Chrome trace-event file.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     chromeTrace(spans),
		"displayTimeUnit": "ms",
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
