package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke.golden from this run")

// smokeArgs pins a tiny scenario: one QVISOR scheme, fixed seed, a 5 ms
// traffic window, with the port table and the watchdog report (1-in-1) so
// the rewrite path, the counters and the observers all reach stdout.
var smokeArgs = []string{
	"-scheme", "qvisor-share", "-load", "0.6", "-horizon", "5ms", "-seed", "7",
	"-ports", "-slo", "-slo-sample", "1",
}

// TestSmokeGolden runs the command end to end and compares its stdout with
// the checked-in golden: the cheap tripwire outside internal/ for any
// change that should leave simulated behaviour alone. Regenerate with
// `go test ./cmd/qvisor-sim -update` only when the change is meant to
// move these numbers.
func TestSmokeGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(smokeArgs, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "smoke.golden")
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
		t.Fatalf("stdout drifted from %s (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			golden, out.Bytes(), want)
	}
}

func TestUnknownScheme(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
