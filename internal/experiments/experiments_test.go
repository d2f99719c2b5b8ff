package experiments

import (
	"strconv"
	"strings"
	"testing"

	"mac3d/internal/workloads"
)

func testSuite() *Suite {
	return NewSuite(Options{
		Scale:      workloads.Tiny,
		Seed:       1,
		Benchmarks: []string{"sg", "bfs"},
	})
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestSuiteCachesRuns(t *testing.T) {
	s := testSuite()
	a, err := s.MAC("sg", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MAC("sg", 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs not cached")
	}
	tr1, _ := s.Trace("sg", 8)
	tr2, _ := s.Trace("sg", 8)
	if tr1 != tr2 {
		t.Fatal("traces not cached")
	}
}

// TestSuiteSharesIdenticalMachines checks that runs are keyed by the
// machine, not by the accessor that spelled it: the default ARQ depth
// and the default window are the plain MAC run.
func TestSuiteSharesIdenticalMachines(t *testing.T) {
	s := testSuite()
	mac, err := s.MAC("sg", 8)
	if err != nil {
		t.Fatal(err)
	}
	arq, err := s.MACWithARQ("sg", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	window, err := s.MACWithWindow("sg", 8, 256, false)
	if err != nil {
		t.Fatal(err)
	}
	if arq != mac || window != mac {
		t.Fatal("identical machines simulated more than once")
	}
	deep, err := s.MACWithARQ("sg", 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if deep == mac {
		t.Fatal("a deeper ARQ shared the default run")
	}
}

func TestSuiteUnknownBenchmark(t *testing.T) {
	s := NewSuite(Options{Scale: workloads.Tiny, Benchmarks: []string{"nope"}})
	if _, err := s.MAC("nope", 8); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestFig01MissRateHighForIrregular(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig01MissRate()
	if err != nil {
		t.Fatal(err)
	}
	// rows: sg, bfs, average — all with positive miss rates.
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	avg := cell(t, tab.Rows[2][3])
	if avg <= 5 || avg > 100 {
		t.Fatalf("avg miss rate %v%% implausible", avg)
	}
}

func TestFig01SizeSweepShape(t *testing.T) {
	s := testSuite()
	tab := s.Fig01SizeSweep()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	seqLast, rndLast := cell(t, last[1]), cell(t, last[2])
	rndFirst := cell(t, first[2])
	// Sequential stays low at every size; random grows massively
	// once the dataset exceeds the 8MB cache (paper: 2.36% vs
	// 63.85% at 32GB).
	if seqLast > 10 {
		t.Fatalf("sequential miss rate at 32GB = %v%%", seqLast)
	}
	if rndLast < 30 {
		t.Fatalf("random miss rate at 32GB = %v%%", rndLast)
	}
	if rndLast < 5*rndFirst {
		t.Fatalf("random miss rate did not grow: %v%% -> %v%%", rndFirst, rndLast)
	}
}

func TestFig03MatchesPaperExactly(t *testing.T) {
	tab := Fig03BandwidthEfficiency()
	want := map[string]string{"16": "33.33", "256": "88.89"}
	for _, row := range tab.Rows {
		if exp, ok := want[row[0]]; ok && row[1] != exp {
			t.Fatalf("size %s: efficiency %s, want %s", row[0], row[1], exp)
		}
	}
}

func TestFig09OfferedLoadAboveServiceRate(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig09RequestRate()
	if err != nil {
		t.Fatal(err)
	}
	// Offered RPC must exceed the MAC's 0.5/cycle service rate for
	// every benchmark (the Figure 9 argument).
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if rpc := cell(t, row[3]); rpc < 0.5 {
			t.Fatalf("%s: offered RPC %v below service rate", row[0], rpc)
		}
	}
}

func TestFig10ThreadTrend(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig10CoalescingEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	avg := tab.Rows[len(tab.Rows)-1]
	e2, e8 := cell(t, avg[1]), cell(t, avg[3])
	if e8 <= 0 || e2 <= 0 {
		t.Fatalf("efficiencies %v / %v", e2, e8)
	}
	// Paper: efficiency grows with threads (48.37% -> 52.86%).
	if e8 < e2-5 {
		t.Fatalf("8-thread efficiency %v%% far below 2-thread %v%%", e8, e2)
	}
}

func TestFig11MonotoneTrend(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig11ARQSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first := cell(t, tab.Rows[0][1])
	last := cell(t, tab.Rows[len(tab.Rows)-1][1])
	if last <= first {
		t.Fatalf("no growth with ARQ entries: %v -> %v", first, last)
	}
}

func TestFig12ConflictsRemoved(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig12BankConflicts()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows[:len(tab.Rows)-2] {
		if removed := cell(t, row[3]); removed <= 0 {
			t.Fatalf("%s: conflicts removed %v", row[0], removed)
		}
	}
}

func TestFig13RawIsOneThird(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig13BandwidthEfficiency()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if raw := cell(t, row[2]); raw < 33.3 || raw > 33.4 {
			t.Fatalf("raw efficiency %v, want 33.33", raw)
		}
	}
	// MAC beats raw everywhere.
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if cell(t, row[1]) <= 33.4 {
			t.Fatalf("%s: MAC efficiency %s not above raw", row[0], row[1])
		}
	}
}

func TestFig14SavesBandwidth(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig14BandwidthSaving()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if strings.HasPrefix(row[3], "-") {
			t.Fatalf("%s: negative saving %s", row[0], row[3])
		}
	}
}

func TestFig15TargetsWithinCapacity(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig15TargetsPerEntry()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		avg := cell(t, row[1])
		if avg < 1 || avg > 12 {
			t.Fatalf("%s: avg targets %v outside [1,12]", row[0], avg)
		}
		if maxv := cell(t, row[2]); maxv > 12 {
			t.Fatalf("%s: max targets %v above the 64B-entry capacity", row[0], maxv)
		}
	}
}

func TestFig16MatchesPaperAnchors(t *testing.T) {
	tab := Fig16SpaceOverhead()
	// Paper anchors: 8 entries -> 512B ARQ; 256 -> 16KB; 32 -> 2062B total.
	for _, row := range tab.Rows {
		switch row[0] {
		case "8":
			if row[1] != "512" {
				t.Fatalf("8 entries: ARQ %sB", row[1])
			}
		case "32":
			if row[3] != "2062" {
				t.Fatalf("32 entries: total %sB, want 2062", row[3])
			}
		case "256":
			if row[1] != "16384" {
				t.Fatalf("256 entries: ARQ %sB", row[1])
			}
		}
	}
}

func TestFig17PositiveSpeedup(t *testing.T) {
	s := testSuite()
	tab, err := s.Fig17Speedup()
	if err != nil {
		t.Fatal(err)
	}
	avg := cell(t, tab.Rows[len(tab.Rows)-1][3])
	if avg <= 0 {
		t.Fatalf("average memory speedup %v%%", avg)
	}
}

func TestAblationsRun(t *testing.T) {
	s := testSuite()
	if _, err := s.AblationFillMode(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AblationMSHR(); err != nil {
		t.Fatal(err)
	}
	tab, err := s.AblationLSQDepth()
	if err != nil {
		t.Fatal(err)
	}
	// The offered-load effect: efficiency at LSQ=256 far above LSQ=1.
	var eff1, eff256 float64
	for _, row := range tab.Rows {
		if row[0] != "sg" {
			continue
		}
		switch row[1] {
		case "1":
			eff1 = cell(t, row[2])
		case "256":
			eff256 = cell(t, row[2])
		}
	}
	if eff256 <= eff1 {
		t.Fatalf("LSQ sweep shows no offered-load effect: %v vs %v", eff1, eff256)
	}
}

func TestAblationNoCRuns(t *testing.T) {
	s := testSuite()
	// AblationNoC fails itself when any topology loses work or when
	// ring and mesh are indistinguishable, so running it is the test;
	// just check the table has the full sweep.
	tab, err := s.AblationNoC()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.ablationSet()) * 3; len(tab.Rows) != want {
		t.Fatalf("abl-noc produced %d rows, want %d", len(tab.Rows), want)
	}
}

func TestPrefetchParallelMatchesSequential(t *testing.T) {
	seq := NewSuite(Options{Scale: workloads.Tiny, Benchmarks: []string{"sg", "bfs"}})
	par := NewSuite(Options{Scale: workloads.Tiny, Benchmarks: []string{"sg", "bfs"}, Parallel: 4})
	if err := par.Prefetch(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sg", "bfs"} {
		a, err := seq.MAC(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.MAC(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles || a.Coalescer.Transactions != b.Coalescer.Transactions {
			t.Fatalf("%s: parallel run diverged from sequential", name)
		}
	}
}

func TestSuiteErrorPropagationConcurrent(t *testing.T) {
	s := NewSuite(Options{Scale: workloads.Tiny, Benchmarks: []string{"bogus"}, Parallel: 2})
	if err := s.Prefetch(); err == nil {
		t.Fatal("prefetch of unknown benchmark succeeded")
	}
	// The error must be sticky for later callers too.
	if _, err := s.MAC("bogus", 8); err == nil {
		t.Fatal("cached error lost")
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every figure and table of the paper must be present.
	for _, want := range []string{
		"fig1", "fig3", "table1", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, err := Find("fig10"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("bogus"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		512:     "512B",
		2 << 10: "2.00KB",
		3 << 20: "3.00MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Fatalf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
