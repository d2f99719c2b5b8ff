package main

import (
	"errors"
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

	// A routed open-page cube run is deterministic too, cube block
	// included.
	t.Run("cube ring golden", func(t *testing.T) {
		out, err := exec.Command(bin, "-workload", "sg", "-scale", "tiny", "-cube", "ring,page=open,quad=2").Output()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "cube-sg-ring-open.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("output differs from testdata/cube-sg-ring-open.golden:\n%s", out)
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
		// -numa runs have no single-node knobs: each flag must be
		// refused by name (exit 2), not silently dropped.
		dir := t.TempDir()
		for _, extra := range [][]string{
			{"-arq", "4"},
			{"-audit"},
			{"-metrics-out", filepath.Join(dir, "m.txt")},
			{"-timeseries-out", filepath.Join(dir, "ts.csv")},
			{"-trace-out", filepath.Join(dir, "trace.json")},
			{"-obs-interval", "32"},
		} {
			args := append([]string{"-workload", "sg", "-numa", "2"}, extra...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("macsim %v: err %v, want exit status 2", args, err)
			}
			if !strings.Contains(string(out), extra[0]) {
				t.Errorf("macsim %v: message does not name %s:\n%s", args, extra[0], out)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "m.txt")); err == nil {
			t.Error("refused -numa run still wrote -metrics-out")
		}
		// Dropping a NUMA flag would silently run a single node: a
		// negative -numa and -numa-topology without -numa are refused
		// by name too.
		for _, c := range []struct {
			args []string
			flag string
		}{
			{[]string{"-workload", "sg", "-numa", "-3"}, "-numa"},
			{[]string{"-workload", "sg", "-numa-topology", "mesh"}, "-numa-topology"},
		} {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("macsim %v: err %v, want exit status 2", c.args, err)
			}
			if !strings.Contains(string(out), c.flag) {
				t.Errorf("macsim %v: message does not name %s:\n%s", c.args, c.flag, out)
			}
		}
		// Flag values take the library's validation: a negative
		// sampling interval fails the run before any output is written.
		series := filepath.Join(dir, "neg.csv")
		if out, err := exec.Command(bin, "-workload", "sg", "-obs-interval", "-5", "-timeseries-out", series).CombinedOutput(); err == nil {
			t.Errorf("macsim -obs-interval -5 succeeded, want failure:\n%s", out)
		}
		if _, err := os.Stat(series); err == nil {
			t.Error("refused -obs-interval -5 run still wrote -timeseries-out")
		}
	})
}
