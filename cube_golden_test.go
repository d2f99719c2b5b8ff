package mac3d

import "testing"

// cubeGoldenRow pins one pre-fabric reference run: the exact counters
// the simulator produced before the cube-internal vault fabric,
// open-page policy and quadrant model existed. The default cube
// configuration (ideal crossbar, closed page, no quadrant penalty)
// must reproduce every row cycle-for-cycle — the fabric is additive,
// never a silent change to the baseline model.
type cubeGoldenRow struct {
	workload      string
	chaos         string // chaos preset; "" = no chaos (seed 7 when set)
	cycles        uint64
	memRequests   uint64
	transactions  uint64
	bankConflicts uint64
	dataBytes     uint64
	controlBytes  uint64
	p99Latency    uint64
	maxLatency    uint64
	delayed       uint64
	reordered     uint64
	fences        uint64
	freezes       uint64
	vaultStalls   uint64
}

// cubeGolden was captured from the pre-fabric tree at tiny scale:
// every paper workload plain, plus the mild and storm chaos presets on
// the lightest and heaviest benchmarks.
var cubeGolden = []cubeGoldenRow{
	{workload: "sg", chaos: "", cycles: 10284, memRequests: 6144, transactions: 2862, bankConflicts: 1223, dataBytes: 192928, controlBytes: 91584, p99Latency: 950, maxLatency: 950},
	{workload: "hpcg", chaos: "", cycles: 121114, memRequests: 80272, transactions: 18196, bankConflicts: 9054, dataBytes: 1506400, controlBytes: 582272, p99Latency: 4095, maxLatency: 5761},
	{workload: "ssca2", chaos: "", cycles: 15025, memRequests: 3150, transactions: 664, bankConflicts: 471, dataBytes: 39168, controlBytes: 21248, p99Latency: 4095, maxLatency: 7260},
	{workload: "grappolo", chaos: "", cycles: 34466, memRequests: 7728, transactions: 2450, bankConflicts: 1457, dataBytes: 191424, controlBytes: 78400, p99Latency: 6516, maxLatency: 6516},
	{workload: "bfs", chaos: "", cycles: 36057, memRequests: 3862, transactions: 1210, bankConflicts: 878, dataBytes: 81264, controlBytes: 38720, p99Latency: 5596, maxLatency: 5596},
	{workload: "pr", chaos: "", cycles: 55679, memRequests: 9208, transactions: 2542, bankConflicts: 1830, dataBytes: 189840, controlBytes: 81344, p99Latency: 8191, maxLatency: 8608},
	{workload: "cc", chaos: "", cycles: 100343, memRequests: 12276, transactions: 3040, bankConflicts: 2266, dataBytes: 225936, controlBytes: 97280, p99Latency: 8191, maxLatency: 8295},
	{workload: "nqueens", chaos: "", cycles: 31278, memRequests: 13792, transactions: 2007, bankConflicts: 1771, dataBytes: 156688, controlBytes: 64224, p99Latency: 5573, maxLatency: 5573},
	{workload: "sparselu", chaos: "", cycles: 55257, memRequests: 6216, transactions: 1355, bankConflicts: 1151, dataBytes: 113632, controlBytes: 43360, p99Latency: 14085, maxLatency: 14085},
	{workload: "mg", chaos: "", cycles: 365310, memRequests: 186888, transactions: 44693, bankConflicts: 17153, dataBytes: 5445008, controlBytes: 1430176, p99Latency: 4095, maxLatency: 6563},
	{workload: "sp", chaos: "", cycles: 66671, memRequests: 33264, transactions: 12826, bankConflicts: 7496, dataBytes: 1222944, controlBytes: 410432, p99Latency: 4095, maxLatency: 4486},
	{workload: "is", chaos: "", cycles: 359997, memRequests: 21776, transactions: 14912, bankConflicts: 6994, dataBytes: 495376, controlBytes: 477184, p99Latency: 9301, maxLatency: 9301},
	{workload: "sg", chaos: "mild", cycles: 14531, memRequests: 6144, transactions: 3073, bankConflicts: 1357, dataBytes: 191952, controlBytes: 98336, p99Latency: 1564, maxLatency: 1564, delayed: 80, reordered: 11, fences: 11, freezes: 0, vaultStalls: 15},
	{workload: "mg", chaos: "mild", cycles: 495826, memRequests: 186888, transactions: 51836, bankConflicts: 23882, dataBytes: 5561360, controlBytes: 1658752, p99Latency: 4095, maxLatency: 7057, delayed: 1241, reordered: 48, fences: 280, freezes: 0, vaultStalls: 517},
	{workload: "sg", chaos: "storm", cycles: 29617, memRequests: 6144, transactions: 3488, bankConflicts: 1301, dataBytes: 183488, controlBytes: 111616, p99Latency: 2574, maxLatency: 2574, delayed: 1227, reordered: 44, fences: 624, freezes: 3480, vaultStalls: 307},
	{workload: "mg", chaos: "storm", cycles: 1489648, memRequests: 186888, transactions: 86343, bankConflicts: 51077, dataBytes: 5762912, controlBytes: 2762976, p99Latency: 4095, maxLatency: 8814, delayed: 34027, reordered: 391, fences: 30496, freezes: 161544, vaultStalls: 14855},
}

// runGoldenRow executes one golden row under the given cube spelling
// and diffs every pinned counter.
func runGoldenRow(t *testing.T, g cubeGoldenRow, cube string) {
	t.Helper()
	if got := goldenOf(t, runGolden(t, g, cube), g); got != g {
		t.Errorf("%s/%s cube %q diverged from the pre-fabric golden:\n got %+v\nwant %+v",
			g.workload, g.chaos, cube, got, g)
	}
}

// runGolden executes g's workload at tiny scale under the given cube
// spelling, with g's chaos profile (seed 7) when set.
func runGolden(t *testing.T, g cubeGoldenRow, cube string) *RunReport {
	t.Helper()
	opts := RunOptions{Workload: g.workload, Scale: ScaleTiny, Cube: cube}
	if g.chaos != "" {
		opts.Chaos = ChaosOptions{Profile: g.chaos, Seed: 7}
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// goldenOf extracts the cubeGoldenRow counters from rep.
func goldenOf(t *testing.T, rep *RunReport, g cubeGoldenRow) cubeGoldenRow {
	t.Helper()
	got := cubeGoldenRow{
		workload:      g.workload,
		chaos:         g.chaos,
		cycles:        rep.Cycles,
		memRequests:   rep.MemRequests,
		transactions:  rep.Transactions,
		bankConflicts: rep.BankConflicts,
		dataBytes:     rep.DataBytes,
		controlBytes:  rep.ControlBytes,
		p99Latency:    rep.P99LatencyCycles,
		maxLatency:    rep.MaxLatencyCycles,
	}
	if g.chaos != "" {
		if rep.Chaos == nil {
			t.Fatalf("%s/%s: chaos run missing chaos report", g.workload, g.chaos)
		}
		got.delayed = rep.Chaos.DelayedResponses
		got.reordered = rep.Chaos.ReorderedBatches
		got.fences = rep.Chaos.FencesInjected
		got.freezes = rep.Chaos.FreezeCycles
		got.vaultStalls = rep.Chaos.VaultStalls
	}
	return got
}

// TestCubeDefaultMatchesPreFabricGolden holds the default cube
// configuration bit-identical to the model as it was before the vault
// fabric landed, across every paper workload and the chaos presets.
func TestCubeDefaultMatchesPreFabricGolden(t *testing.T) {
	for _, g := range cubeGolden {
		runGoldenRow(t, g, "")
	}
}

// TestCubeExplicitIdealMatchesGolden: spelling the default out as an
// explicit ideal crossbar with closed-page rows is the same machine.
// The chaos presets ride along on the two bracketing benchmarks (the
// cubelink RNG roll is gated off when the fabric is ideal, so the
// chaos replay stream must be unchanged too).
func TestCubeExplicitIdealMatchesGolden(t *testing.T) {
	for _, g := range cubeGolden {
		if g.workload != "sg" && g.workload != "mg" {
			continue
		}
		runGoldenRow(t, g, "crossbar,page=closed")
	}
}

// cubeRoutedRow pins one routed-cube run: the cubeGoldenRow counters
// plus the exact mean latency, the fabric's message and stall counts,
// the open-page row outcomes and the cubelink chaos stalls.
type cubeRoutedRow struct {
	cube            string
	base            cubeGoldenRow
	avgLatency      float64
	fabricSent      uint64
	fabricDelivered uint64
	fabricStalls    uint64
	rowHits         uint64
	rowMisses       uint64
	rowConflicts    uint64
	cubeLinkStalls  uint64
}

// cubeRouted was captured at tiny scale before the fabric's queues
// moved onto internal/queue rings and the cube messages onto a slab.
// The tight-buffer rows (buf=8,inject=1,bw=1) are the only ones that
// credit-stall, so they cover backpressure and the blocked injection
// path; the chaos rows cover cubelink stalls (seed 7).
var cubeRouted = []cubeRoutedRow{
	{cube: "ring", base: cubeGoldenRow{workload: "sg", cycles: 9572, memRequests: 6144, transactions: 2780, bankConflicts: 1270, dataBytes: 191136, controlBytes: 88960, p99Latency: 1017, maxLatency: 1017}, avgLatency: 600.85400390625, fabricSent: 5560, fabricDelivered: 5560},
	{cube: "ring,page=open", base: cubeGoldenRow{workload: "sg", cycles: 7709, memRequests: 6144, transactions: 2839, bankConflicts: 120, dataBytes: 197696, controlBytes: 90848, p99Latency: 654, maxLatency: 654}, avgLatency: 460.9111328125, fabricSent: 5678, fabricDelivered: 5678, rowHits: 2647, rowMisses: 192},
	{cube: "mesh,page=open", base: cubeGoldenRow{workload: "sg", cycles: 7160, memRequests: 6144, transactions: 2910, bankConflicts: 112, dataBytes: 196336, controlBytes: 93120, p99Latency: 511, maxLatency: 558}, avgLatency: 417.5069986979167, fabricSent: 5820, fabricDelivered: 5820, rowHits: 2718, rowMisses: 192},
	{cube: "ring,quad=8", base: cubeGoldenRow{workload: "sg", cycles: 9487, memRequests: 6144, transactions: 2714, bankConflicts: 1241, dataBytes: 192928, controlBytes: 86848, p99Latency: 1023, maxLatency: 1025}, avgLatency: 605.4283854166666, fabricSent: 5428, fabricDelivered: 5428},
	{cube: "ring,page=open", base: cubeGoldenRow{workload: "mg", cycles: 238547, memRequests: 186888, transactions: 66360, bankConflicts: 29079, dataBytes: 6082096, controlBytes: 2123520, p99Latency: 2047, maxLatency: 3505}, avgLatency: 529.5941472967767, fabricSent: 132720, fabricDelivered: 132720, rowHits: 66068, rowMisses: 292},
	{cube: "mesh", base: cubeGoldenRow{workload: "mg", cycles: 308322, memRequests: 186888, transactions: 45696, bankConflicts: 21865, dataBytes: 5656944, controlBytes: 1462272, p99Latency: 4095, maxLatency: 6635}, avgLatency: 862.3793020418647, fabricSent: 91392, fabricDelivered: 91392},
	{cube: "ring,buf=8,inject=1,bw=1", base: cubeGoldenRow{workload: "sg", cycles: 10171, memRequests: 6144, transactions: 2789, bankConflicts: 1233, dataBytes: 191536, controlBytes: 89248, p99Latency: 1023, maxLatency: 1069}, avgLatency: 633.9720052083334, fabricSent: 5578, fabricDelivered: 5578, fabricStalls: 169},
	{cube: "mesh,buf=8,inject=1,bw=1,page=open", base: cubeGoldenRow{workload: "sg", cycles: 7505, memRequests: 6144, transactions: 2931, bankConflicts: 114, dataBytes: 194768, controlBytes: 93792, p99Latency: 616, maxLatency: 616}, avgLatency: 439.23486328125, fabricSent: 5862, fabricDelivered: 5862, fabricStalls: 36, rowHits: 2739, rowMisses: 192},
	{cube: "ring,page=open", base: cubeGoldenRow{workload: "sg", chaos: "cubelink=0.05:150", cycles: 13489, memRequests: 6144, transactions: 2832, bankConflicts: 551, dataBytes: 192560, controlBytes: 90624, p99Latency: 1603, maxLatency: 1603}, avgLatency: 813.3712565104166, fabricSent: 5664, fabricDelivered: 5664, fabricStalls: 78483, rowHits: 2640, rowMisses: 192, cubeLinkStalls: 702},
	{cube: "mesh", base: cubeGoldenRow{workload: "sg", chaos: "delay=0.01:16:32,reorder=0.1,cubelink=0.02:400", cycles: 14526, memRequests: 6144, transactions: 2786, bankConflicts: 1118, dataBytes: 193008, controlBytes: 89152, p99Latency: 2047, maxLatency: 2379, delayed: 373, reordered: 24}, avgLatency: 875.8466796875, fabricSent: 5572, fabricDelivered: 5572, fabricStalls: 99845, cubeLinkStalls: 309},
}

// TestCubeRoutedGolden holds the ring and mesh cube fabrics to their
// captured runs, cycle for cycle.
func TestCubeRoutedGolden(t *testing.T) {
	for _, g := range cubeRouted {
		name := g.base.workload + " " + g.cube
		if g.base.chaos != "" {
			name += " chaos=" + g.base.chaos
		}
		t.Run(name, func(t *testing.T) {
			rep := runGolden(t, g.base, g.cube)
			if rep.Cube == nil {
				t.Fatal("routed run missing cube report")
			}
			got := cubeRoutedRow{
				cube:            g.cube,
				base:            goldenOf(t, rep, g.base),
				avgLatency:      rep.AvgLatencyCycles,
				fabricSent:      rep.Cube.FabricSent,
				fabricDelivered: rep.Cube.FabricDelivered,
				fabricStalls:    rep.Cube.FabricStallCycles,
				rowHits:         rep.Cube.RowHits,
				rowMisses:       rep.Cube.RowMisses,
				rowConflicts:    rep.Cube.RowConflicts,
			}
			if rep.Chaos != nil {
				got.cubeLinkStalls = rep.Chaos.CubeLinkStalls
			}
			if got != g {
				t.Errorf("diverged from the captured run:\n got %#v\nwant %#v", got, g)
			}
		})
	}
}
