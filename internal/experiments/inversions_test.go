package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInversionGolden pins every field of every row of two inversion
// studies: the one TestInversionStudy checks and the one `qvisor-eval
// -experiment inversions` prints at its default seed. A refactor of the
// study or the schedulers it replays proves it kept behaviour by leaving
// testdata/inversions.golden alone; a change meant to move the study
// regenerates it with -update and explains the diff.
func TestInversionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-packet study in -short mode")
	}
	var b strings.Builder
	for _, run := range []struct {
		packets int
		seed    int64
	}{{20000, 3}, {100000, 1}} {
		results, err := InversionStudy(run.packets, run.seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "InversionStudy(%d, %d)\n", run.packets, run.seed)
		for _, r := range results {
			fmt.Fprintf(&b, "  %-12s dequeues=%d inversions=%d rate=%v drops=%d\n",
				r.Scheduler, r.Dequeues, r.Inversions, r.Rate, r.Drops)
		}
	}
	matchGolden(t, "inversions.golden", b.String())
}

// matchGolden compares got with testdata/name, or rewrites the file under
// -update.
func matchGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
