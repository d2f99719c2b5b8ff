package workloads

import (
	"testing"

	"mac3d/internal/addr"
	"mac3d/internal/trace"
)

func tinyCfg(threads int) Config {
	return Config{Threads: threads, Seed: 7, Scale: Tiny}
}

func TestRegistryContainsPaperSet(t *testing.T) {
	for _, name := range PaperSet() {
		k, err := New(name)
		if err != nil {
			t.Fatalf("paper kernel %q missing: %v", name, err)
		}
		if k.Name() != name {
			t.Fatalf("kernel %q reports name %q", name, k.Name())
		}
		if k.Description() == "" {
			t.Fatalf("kernel %q has no description", name)
		}
	}
	if len(PaperSet()) != 12 {
		t.Fatalf("paper set has %d kernels, want 12", len(PaperSet()))
	}
}

func TestNewUnknownKernel(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Threads: 0}).Validate(); err == nil {
		t.Fatal("zero threads accepted")
	}
	if err := (Config{Threads: 1, Scale: Scale(9)}).Validate(); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// checkTrace asserts the structural invariants every kernel trace must
// satisfy.
func checkTrace(t *testing.T, name string, tr *trace.Trace, threads int) trace.Stats {
	t.Helper()
	if tr.NumThreads() < threads {
		t.Fatalf("%s: %d thread streams, want >= %d", name, tr.NumThreads(), threads)
	}
	st := trace.ComputeStats(tr)
	if st.MemRefs == 0 {
		t.Fatalf("%s: no memory references", name)
	}
	active := 0
	for _, th := range tr.Threads {
		if len(th) > 0 {
			active++
		}
		for _, e := range th {
			if !e.Op.Valid() {
				t.Fatalf("%s: invalid op %d", name, e.Op)
			}
			if e.Op.IsMemory() {
				if e.Size == 0 || e.Size > 16 {
					t.Fatalf("%s: access size %d", name, e.Size)
				}
				if e.Addr>>addr.PhysBits != 0 {
					t.Fatalf("%s: address above 52 bits: %#x", name, e.Addr)
				}
			}
			if int(e.Thread) >= threads {
				t.Fatalf("%s: event thread %d >= %d", name, e.Thread, threads)
			}
		}
	}
	if active < threads {
		t.Fatalf("%s: only %d of %d threads produced events", name, active, threads)
	}
	return st
}

func TestAllKernelsGenerateValidTraces(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := Generate(name, tinyCfg(4))
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, name, tr, 4)
		})
	}
}

func TestKernelsDeterministic(t *testing.T) {
	// grappolo is included because its candidate evaluation once
	// depended on Go map iteration order (a real determinism bug).
	for _, name := range []string{"sg", "bfs", "is", "grappolo"} {
		a, err := Generate(name, tinyCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, tinyCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ %d vs %d", name, a.Len(), b.Len())
		}
		for ti := range a.Threads {
			for i := range a.Threads[ti] {
				if a.Threads[ti][i] != b.Threads[ti][i] {
					t.Fatalf("%s: thread %d event %d differs", name, ti, i)
				}
			}
		}
	}
}

func TestSeedChangesRandomKernels(t *testing.T) {
	a, _ := Generate("sg", Config{Threads: 2, Seed: 1, Scale: Tiny})
	b, _ := Generate("sg", Config{Threads: 2, Seed: 2, Scale: Tiny})
	diff := false
	for ti := range a.Threads {
		for i := range a.Threads[ti] {
			if i < len(b.Threads[ti]) && a.Threads[ti][i] != b.Threads[ti][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical SG traces")
	}
}

func TestSGSequentialVsRandomLocality(t *testing.T) {
	seq, err := Generate("sg-seq", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Generate("sg", tinyCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	// Locality metric: fraction of accesses whose 256B row matches
	// one of the thread's previous few accesses (the ARQ's merge
	// window). The sequential variant must show markedly higher row
	// locality than the random gather.
	sameRow := func(tr *trace.Trace) float64 {
		same, total := 0, 0
		const window = 6
		for _, th := range tr.Threads {
			var recent []uint64
			for _, e := range th {
				if !e.Op.IsMemory() {
					continue
				}
				row := e.Addr >> 8
				if len(recent) > 0 {
					total++
					for _, r := range recent {
						if r == row {
							same++
							break
						}
					}
				}
				recent = append(recent, row)
				if len(recent) > window {
					recent = recent[1:]
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(same) / float64(total)
	}
	if s, r := sameRow(seq), sameRow(rnd); s <= r {
		t.Fatalf("row locality: seq %.3f !> rnd %.3f", s, r)
	}
}

func TestThreadScalingGrowsCoverage(t *testing.T) {
	t2, err := Generate("pr", tinyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Generate("pr", tinyCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	// Same total work split across more threads.
	s2, s8 := trace.ComputeStats(t2), trace.ComputeStats(t8)
	ratio := float64(s8.MemRefs) / float64(s2.MemRefs)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("thread count changed work volume: %d vs %d refs", s2.MemRefs, s8.MemRefs)
	}
}

func TestKernelsEmitGaps(t *testing.T) {
	// Every kernel must model non-memory instructions, or the
	// Figure 9 RPI analysis degenerates.
	for _, name := range PaperSet() {
		tr, err := Generate(name, tinyCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		st := trace.ComputeStats(tr)
		if st.RPI >= 1.0 {
			t.Fatalf("%s: RPI = %v (no instruction gaps modeled)", name, st.RPI)
		}
	}
}

func TestNQueensLowRPI(t *testing.T) {
	// NQueens is compute-bound: its RPI must sit well below a
	// streaming kernel's (the Figure 9 spread).
	nq, err := Generate("nqueens", tinyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Generate("sg", tinyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if trace.ComputeStats(nq).RPI >= trace.ComputeStats(sg).RPI {
		t.Fatal("nqueens RPI should be below sg RPI")
	}
}

func TestFencesPresent(t *testing.T) {
	// Barrier-structured kernels must emit fences.
	for _, name := range []string{"hpcg", "bfs", "pr", "cc", "mg", "sp", "is", "sparselu"} {
		tr, err := Generate(name, tinyCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if trace.ComputeStats(tr).Fences == 0 {
			t.Fatalf("%s: no fences traced", name)
		}
	}
}

func TestAtomicsPresentInIS(t *testing.T) {
	tr, err := Generate("is", tinyCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if trace.ComputeStats(tr).Atomics == 0 {
		t.Fatal("IS histogram must use atomics")
	}
}

func TestContextAllocAlignment(t *testing.T) {
	c := NewContext(tinyCfg(1))
	a := c.Alloc(10, 0)
	b := c.Alloc(10, 256)
	if a%64 != 0 || b%256 != 0 {
		t.Fatalf("alignment broken: %#x %#x", a, b)
	}
	if b <= a {
		t.Fatal("allocator not monotonic")
	}
}

func TestContextAllocBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-power-of-two alignment")
		}
	}()
	NewContext(tinyCfg(1)).Alloc(8, 3)
}

func TestContextSPMWindows(t *testing.T) {
	c := NewContext(tinyCfg(4))
	a0 := c.AllocSPM(0, 128)
	a1 := c.AllocSPM(1, 128)
	if !addr.IsSPM(a0) || !addr.IsSPM(a1) {
		t.Fatal("SPM allocations outside SPM region")
	}
	if addr.SPMOwner(a0) != 0 || addr.SPMOwner(a1) != 1 {
		t.Fatal("SPM ownership wrong")
	}
}

func TestContextSPMOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on SPM overflow")
		}
	}()
	c := NewContext(tinyCfg(1))
	c.AllocSPM(0, addr.SPMWindowBytes+1)
}

func TestContextPauseSuppressesTracing(t *testing.T) {
	c := NewContext(tinyCfg(1))
	c.Pause()
	c.Load(0, 0x1000, 8)
	c.Resume()
	c.Load(0, 0x1000, 8)
	if c.Trace().Len() != 1 {
		t.Fatalf("trace has %d events, want 1", c.Trace().Len())
	}
}

func TestContextGapSaturates(t *testing.T) {
	c := NewContext(tinyCfg(1))
	c.Work(0, 10000)
	c.Load(0, 0x40, 8)
	e := c.Trace().Threads[0][0]
	if e.Gap != 255 {
		t.Fatalf("gap = %d, want saturated 255", e.Gap)
	}
	// Gap resets after being consumed.
	c.Load(0, 0x48, 8)
	if c.Trace().Threads[0][1].Gap != 0 {
		t.Fatal("gap did not reset")
	}
}

func TestTypedArraysFunctional(t *testing.T) {
	c := NewContext(tinyCfg(1))
	f := c.NewF64(4)
	f.Store(0, 2, 3.5)
	if f.Load(0, 2) != 3.5 || f.Peek(2) != 3.5 {
		t.Fatal("F64 store/load broken")
	}
	i := c.NewI64(4)
	if old := i.AtomicAdd(0, 1, 5); old != 0 {
		t.Fatalf("AtomicAdd returned %d", old)
	}
	if i.Peek(1) != 5 {
		t.Fatal("AtomicAdd did not apply")
	}
	i32 := c.NewI32(4)
	i32.Store(0, 3, -7)
	if i32.Load(0, 3) != -7 {
		t.Fatal("I32 store/load broken")
	}
	// Traced events: F64 store+load, I64 atomic, I32 store+load = 5
	// (Peek/Poke never trace).
	if got := c.Trace().Len(); got != 5 {
		t.Fatalf("traced %d events, want 5", got)
	}
}

func TestChunkPartitions(t *testing.T) {
	n, threads := 10, 4
	covered := make([]bool, n)
	for t2 := 0; t2 < threads; t2++ {
		lo, hi := chunk(n, threads, t2)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("index %d covered twice", i)
			}
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Fatalf("index %d uncovered", i)
		}
	}
	// Degenerate: more threads than work.
	lo, hi := chunk(1, 8, 7)
	if lo != 1 || hi != 1 {
		t.Fatalf("overflow chunk = [%d,%d)", lo, hi)
	}
}

func TestRMATProperties(t *testing.T) {
	c := NewContext(tinyCfg(1))
	g := RMAT(8, 8, c.RNG(), true)
	if g.N != 256 {
		t.Fatalf("N = %d", g.N)
	}
	if g.M() == 0 || g.M() > 8*256 {
		t.Fatalf("M = %d", g.M())
	}
	if int(g.RowPtr[g.N]) != g.M() {
		t.Fatal("CSR row pointer inconsistent")
	}
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			t.Fatal("row pointers not monotone")
		}
	}
	for _, col := range g.ColIdx {
		if col < 0 || int(col) >= g.N {
			t.Fatalf("column %d out of range", col)
		}
	}
	for _, w := range g.Weights {
		if w < 1 || w > 255 {
			t.Fatalf("weight %d out of range", w)
		}
	}
	// Scale-free shape: the max degree must far exceed the average.
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 3*g.M()/g.N {
		t.Fatalf("max degree %d too uniform for R-MAT", maxDeg)
	}
}

func TestUniformGraph(t *testing.T) {
	c := NewContext(tinyCfg(1))
	g := Uniform(100, 4, c.RNG())
	if g.N != 100 || g.M() == 0 {
		t.Fatalf("uniform graph shape: N=%d M=%d", g.N, g.M())
	}
	if int(g.RowPtr[g.N]) != g.M() {
		t.Fatal("CSR inconsistent")
	}
}

func TestHPCGMatrixShape(t *testing.T) {
	rp, ci, va := csr27(4)
	if len(rp) != 65 {
		t.Fatalf("rowPtr len %d", len(rp))
	}
	if len(ci) != len(va) {
		t.Fatal("colIdx/vals mismatch")
	}
	// Interior vertex has 27 neighbors; corner has 8.
	if int(rp[64]) != len(ci) {
		t.Fatal("CSR inconsistent")
	}
	deg0 := rp[1] - rp[0]
	if deg0 != 8 {
		t.Fatalf("corner degree %d, want 8", deg0)
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Ref} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, bad := range []string{"", "huge", "Tiny", "0"} {
		if _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted", bad)
		}
	}
	if b, err := Scale(9).MarshalText(); err == nil {
		t.Errorf("unknown scale marshalled as %q", b)
	}
}
