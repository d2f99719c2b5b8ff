package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildMacsim compiles the binary once per test binary invocation.
func buildMacsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "macsim")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "mac3d/cmd/macsim")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestMacsimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildMacsim(t)

	t.Run("list", func(t *testing.T) {
		out, err := exec.Command(bin, "-list").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, w := range []string{"sg", "bfs", "is", "mg"} {
			if !strings.Contains(string(out), w) {
				t.Errorf("-list output missing workload %q:\n%s", w, out)
			}
		}
	})

	t.Run("run", func(t *testing.T) {
		out, err := exec.Command(bin, "-workload", "sg", "-scale", "tiny", "-threads", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"cycles", "coalescing efficiency", "bank conflicts"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("report missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("compare", func(t *testing.T) {
		out, err := exec.Command(bin, "-workload", "is", "-scale", "tiny", "-compare").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "memory system speedup") {
			t.Errorf("compare output missing speedup line:\n%s", out)
		}
	})

	t.Run("observability outputs", func(t *testing.T) {
		dir := t.TempDir()
		metrics := filepath.Join(dir, "m.txt")
		series := filepath.Join(dir, "ts.csv")
		out, err := exec.Command(bin, "-workload", "sg", "-scale", "tiny",
			"-metrics-out", metrics, "-timeseries-out", series).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		m, err := os.ReadFile(metrics)
		if err != nil || len(m) == 0 {
			t.Fatalf("metrics file: err=%v len=%d", err, len(m))
		}
		ts, err := os.ReadFile(series)
		if err != nil || !strings.HasPrefix(string(ts), "cycle,") {
			t.Fatalf("timeseries file: err=%v head=%.40s", err, ts)
		}
	})

	// The NUMA report is deterministic, so a run must reproduce the
	// captured bytes exactly.
	t.Run("numa mesh golden", func(t *testing.T) {
		out, err := exec.Command(bin, "-workload", "sg", "-numa", "8", "-numa-topology", "mesh").Output()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "numa-sg-mesh8.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("output differs from testdata/numa-sg-mesh8.golden:\n%s", out)
		}
	})

	t.Run("bad flags exit nonzero", func(t *testing.T) {
		for _, args := range [][]string{
			{"-workload", "sg", "-scale", "galactic"},
			{"-workload", "sg", "-design", "quantum"},
			{"-workload", "nope"},
			{},
		} {
			if err := exec.Command(bin, args...).Run(); err == nil {
				t.Errorf("macsim %v succeeded, want failure", args)
			}
		}
	})
}
