package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mac3d/internal/service"
	"mac3d/internal/workloads"
)

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(from, to int) span { return span{Start: at(from), End: at(to)} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	cases := []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 40)}, 80},
		{"nested", []span{sp(10, 50), sp(20, 30)}, 60},
		{"overlapping", []span{sp(10, 30), sp(20, 40)}, 70},
		{"overlapping and nested", []span{sp(10, 30), sp(20, 40), sp(15, 25), sp(35, 45)}, 65},
		{"sticking out of the parent", []span{sp(-10, 10), sp(90, 120)}, 80},
		{"outside the parent", []span{sp(200, 300)}, 100},
		{"covering the parent", []span{sp(-5, 105), sp(10, 20)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestChromeTraceTracksAndIDs(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Name: "job", Layer: "job", ID: "r-1#0", Parent: -1, Start: at(0), End: at(10)})
	tr.add(span{Name: "submit", Layer: "cluster", ID: "r-1#0", Parent: root, Start: at(0), End: at(2)})
	tr.add(span{Name: "run", Layer: "service.run", ID: "r-1#0", Parent: root, Start: at(3), End: at(8)})
	tr.add(span{Name: "job", Layer: "job", ID: "r-2#1", Parent: -1, Start: at(5), End: at(9)})
	events := chromeTrace(tr.spans)
	tracks := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" {
			tracks[e.Args["name"]] = e.Tid
		}
	}
	if len(tracks) != 3 {
		t.Fatalf("tracks %v, want one per layer", tracks)
	}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.Tid != tracks[e.Cat] {
			t.Errorf("%s on track %d, its layer %s is track %d", e.Name, e.Tid, e.Cat, tracks[e.Cat])
		}
		if e.Name == "run" && (e.Args["id"] != "r-1#0" || e.Args["parent"] != "job" || e.Ts != 3000 || e.Dur != 5000) {
			t.Errorf("run event %+v", e)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{20000, 0.999, 19980.001},
		{1000, 0.99, 990.01},
		{999, 0.9, 899.2},
		{100, 0.9, 90.1},
		{20, 0.5, 10.5},
		{19, 1, 19},
		{1, 1, 1},
	}
	for _, c := range cases {
		v, q := tail(seq(c.n))
		if q != c.q || v < c.want-1e-6 || v > c.want+1e-6 {
			t.Errorf("n=%d: got %s = %v, want %s = %v", c.n, tailLabel(q), v, tailLabel(c.q), c.want)
		}
		// The rule itself: at least tailRule samples lie beyond the value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if q < 1 && beyond < tailRule {
			t.Errorf("n=%d: only %d samples beyond %s", c.n, beyond, tailLabel(q))
		}
	}
}

// TestOpenLoopTimesFromDue stalls the first submission of an open loop
// and checks that the jobs due during the stall are issued late, that the
// lag is reported, and that their latency counts the wait from when they
// were due, not from when they were sent.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var submits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			if submits.Add(1) == 1 {
				time.Sleep(60 * time.Millisecond)
			}
			json.NewEncoder(w).Encode(service.JobStatus{ID: "j-1", State: service.StateDone, Cached: true})
		case strings.HasSuffix(r.URL.Path, "/result"):
			io.WriteString(w, "{}")
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	s := &serveSession{start: time.Now().Add(5 * time.Millisecond)}
	for i := 0; i < 8; i++ {
		s.jobs = append(s.jobs, &jobRec{arrival: arrival{due: time.Duration(i) * 10 * time.Millisecond}, index: i})
	}
	drive(context.Background(), &service.Client{BaseURL: srv.URL}, s.jobs, s.start)
	for _, j := range s.jobs {
		if j.err != nil {
			t.Fatalf("job %d: %v", j.index, j.err)
		}
		if s.latency(j) < s.lag(j) || s.lag(j) < 0 {
			t.Errorf("job %d: latency %v shorter than lag %v", j.index, s.latency(j), s.lag(j))
		}
	}
	// Job 1 was due 10ms in, while job 0's submission stalled for 60ms.
	if lag := s.lag(s.jobs[1]); lag < 40*time.Millisecond {
		t.Errorf("job 1 lag %v, want at least 40ms behind schedule", lag)
	}
	if lat := s.latency(s.jobs[1]); lat < 40*time.Millisecond {
		t.Errorf("job 1 latency %v does not include the wait since it was due", lat)
	}
	// The loop catches up: the last job is issued about on time.
	if lag := s.lag(s.jobs[7]); lag > 15*time.Millisecond {
		t.Errorf("job 7 lag %v, want the generator to have caught up", lag)
	}
}

func TestScheduleIsSeededAndShaped(t *testing.T) {
	a, err := schedule(7, serveRate, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := schedule(7, serveRate, 10*time.Second)
	c, _ := schedule(8, serveRate, 10*time.Second)
	if len(a) != int(serveRate*10) {
		t.Fatalf("%d arrivals, want %d", len(a), int(serveRate*10))
	}
	same := func(x, y []arrival) bool {
		for i := range x {
			if x[i].due != y[i].due || x[i].hash != y[i].hash {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if same(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	first := map[int]arrival{}
	repeats := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if f, ok := first[x.key]; ok {
			repeats++
			if !bytes.Equal(f.spec, x.spec) || f.hash != x.hash {
				t.Fatalf("arrival %d repeats key %d with a different spec", i, x.key)
			}
			continue
		}
		first[x.key] = x
	}
	if share := float64(repeats) / float64(len(a)); share < serveRepeat-0.01 || share > serveRepeat+0.01 {
		t.Errorf("repeat share %.3f, want %.2f", share, serveRepeat)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric names and units the
// program prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(runners) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %v", names, workloadNames())
	}
}

// blame returns the layer whose self time grew the most from base to
// slowed.
func blame(base, slowed map[string]time.Duration) (string, time.Duration) {
	worst, grew := "", time.Duration(0)
	for l, d := range slowed {
		if g := d - base[l]; g > grew {
			worst, grew = l, g
		}
	}
	return worst, grew
}

// TestInjectedSlowdownIsBlamedOnItsLayer adds a fixed delay in one
// layer's shim and checks that the per-layer table blames that layer,
// not glue or a neighbour.
func TestInjectedSlowdownIsBlamedOnItsLayer(t *testing.T) {
	ops := []simOp{{name: "compare/sg", kind: "compare", kernel: "sg", threads: 8}}
	sim := func(inject string) map[string]time.Duration {
		o, err := runSim(ops, workloads.Tiny, runConfig{seed: 3, trace: true, inject: inject}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed > 0 {
			t.Fatalf("inject %q: %d failed checks", inject, o.failed)
		}
		return o.self
	}
	base := sim("")
	for _, c := range []struct{ inject, layer string }{{"core", "core"}, {"hmc", "hmc"}} {
		slowed := sim(c.inject)
		if l, grew := blame(base, slowed); l != c.layer {
			t.Errorf("delay in %s blamed on %s (+%v); self times %v, baseline %v", c.inject, l, grew, slowed, base)
		}
	}

	arrivals, err := schedule(5, 60, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(delay time.Duration) map[string]time.Duration {
		s, _, err := session(arrivals, 5, true, delay)
		if err != nil {
			t.Fatal(err)
		}
		s.warmup = 0
		o := newOutcome()
		s.check(o, io.Discard)
		if o.failed > 0 {
			t.Fatalf("delay %v: %d failed checks", delay, o.failed)
		}
		s.layers(o)
		return o.self
	}
	base = serve(0)
	slowed := serve(serveInjectDelay)
	if l, grew := blame(base, slowed); l != "service.run" {
		t.Errorf("runner delay blamed on %s (+%v); self times %v, baseline %v", l, grew, slowed, base)
	}
}
