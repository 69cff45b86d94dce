package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLoads(t *testing.T) {
	loads, err := parseLoads("0.2, 0.5,0.8")
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 3 || loads[0] != 0.2 || loads[2] != 0.8 {
		t.Fatalf("loads = %v", loads)
	}
	if _, err := parseLoads(""); err == nil {
		t.Fatal("empty loads accepted")
	}
	if _, err := parseLoads("x"); err == nil {
		t.Fatal("bad load accepted")
	}
	// Trailing commas tolerated.
	if loads, err := parseLoads("0.5,"); err != nil || len(loads) != 1 {
		t.Fatalf("trailing comma: %v, %v", loads, err)
	}
}

func TestRunFig3(t *testing.T) {
	// The fig3 experiment is deterministic and fast; exercising it from
	// the CLI entry point covers the wiring.
	if err := run([]string{"-experiment", "fig3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFig4Parallel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	csv := filepath.Join(t.TempDir(), "fig4a.csv")
	err := run([]string{
		"-experiment", "fig4a", "-loads", "0.4", "-horizon", "5ms",
		"-workers", "4", "-progress=false", "-csv", csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scheme,load,bin") {
		t.Fatalf("csv header missing:\n%s", data)
	}
}

func TestRunFig4Trials(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	csv := filepath.Join(t.TempDir(), "trials.csv")
	err := run([]string{
		"-experiment", "fig4b", "-loads", "0.4", "-horizon", "5ms",
		"-workers", "4", "-seeds", "2", "-progress=false", "-csv", csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "stderr_ms") {
		t.Fatalf("trial csv header missing:\n%s", data)
	}
}

func TestRunRejectsBadSeeds(t *testing.T) {
	if err := run([]string{"-experiment", "fig4a", "-seeds", "0"}); err == nil {
		t.Fatal("-seeds 0 accepted")
	}
	if err := run([]string{"-experiment", "fig4a", "-workers", "-3"}); err == nil {
		t.Fatal("negative -workers accepted")
	}
}

// TestRunObserverFlags: an observer flag the experiment cannot feed is an
// error, not an empty file — fig3 and inversions run no simulation, and
// churn's epoch check keeps its own trace — while an experiment outside
// Figure 4 fills the metrics snapshot.
func TestRunObserverFlags(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	for _, args := range [][]string{
		{"-experiment", "fig3", "-slo"},
		{"-experiment", "fig3", "-metrics", out},
		{"-experiment", "inversions", "-trace-perfetto", out},
		{"-experiment", "churn", "-trace-perfetto", out},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused run wrote %s (%v)", out, err)
	}

	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	if err := run([]string{"-experiment", "shift", "-horizon", "5ms", "-metrics", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"qvisor_netsim_`) {
		t.Fatalf("shift metrics snapshot holds no qvisor_netsim_* family:\n%.300s", data)
	}
}
