package experiments

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestBackendDigests pins what one small seeded Figure-4 run computes on
// every deployment backend: a hash of the packet counters, the three FCT
// summaries and the deadline share. A refactor of the queueing code proves
// it kept behaviour by leaving testdata/backend_digests.golden alone; a
// change meant to move simulated results regenerates it with -update and
// explains the diff.
func TestBackendDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	var b strings.Builder
	for _, backend := range core.Backends() {
		cfg := ScaledConfig()
		cfg.Horizon = 20 * sim.Millisecond
		cfg.Backend = backend
		cfg.Queues = 8
		r, err := Run(cfg, QvisorPFabricFirst, 0.6)
		if err != nil {
			t.Fatalf("backend %v: %v", backend, err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v|%+v|%+v|%+v|%v", r.Counters, r.Small, r.Large, r.All, r.DeadlineMet)
		fmt.Fprintf(&b, "%-10s %016x delivered=%d dropped=%d flows=%d\n",
			backend, h.Sum64(), r.Counters.Delivered, r.Counters.Dropped, r.Flows)
	}
	path := filepath.Join("testdata", "backend_digests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("backend digests drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
