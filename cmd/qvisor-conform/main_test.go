package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenarios", "5", "-seed", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "PASS: no violations") {
		t.Fatalf("missing PASS line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "pifotree") {
		t.Fatalf("missing backend rows:\n%s", out.String())
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-scenarios", "4", "-seed", "11"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenarios", "4", "-seed", "11"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same flags, different output:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestRunBackendFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenarios", "3", "-backend", "fifo,pifo"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "drr") {
		t.Fatalf("unselected backend in output:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-backend", "bogus"}, &out); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if err := run([]string{"positional"}, &out); err == nil {
		t.Fatal("positional argument accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// goldenSweeps are the three sweeps CI runs: the differential sweep, the
// replay scoreboard, and the bucket queue beside the FIFO baseline its
// drift ceiling is measured against. Their reports are deterministic, so
// a refactor of the harness or of any scheduler must leave them byte for
// byte alone. Regenerate with `go test ./cmd/qvisor-conform -update` only
// when the change is meant to move them.
var goldenSweeps = []struct {
	file string
	args []string
}{
	{"sweep.golden", []string{"-scenarios", "200", "-seed", "1"}},
	{"replay.golden", []string{"-replay", "-scenarios", "200", "-seed", "1"}},
	{"bucketq_fifo.golden", []string{"-scenarios", "200", "-seed", "1", "-backend", "bucketq,fifo"}},
}

func TestSweepGoldens(t *testing.T) {
	for _, g := range goldenSweeps {
		t.Run(g.file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(g.args, &out); err != nil {
				t.Fatalf("run %v: %v\n%s", g.args, err, out.String())
			}
			golden := filepath.Join("testdata", g.file)
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("report drifted from %s (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s",
					golden, out.Bytes(), want)
			}
		})
	}
}
