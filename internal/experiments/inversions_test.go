package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
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

// pinResult compares result with the line of testdata/experiment_digests.golden
// that starts with key. The line holds the FNV-64a hash of result's JSON
// encoding, which covers every exported field: the FCT summaries, the
// counters, the resynthesis statistics and the epoch check (no result
// type carries a wall-clock field). Each test owns its line, so the
// experiment tests pin their runs without simulating anything twice;
// -update rewrites only the caller's line.
func pinResult(t *testing.T, key string, result any) {
	t.Helper()
	js, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(js)
	line := fmt.Sprintf("%-8s %016x", key, h.Sum64())

	path := filepath.Join("testdata", "experiment_digests.golden")
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(data) == 0 {
		lines = nil
	}
	at := -1
	for i, l := range lines {
		if strings.HasPrefix(l, key+" ") {
			at = i
		}
	}
	if *updateGolden {
		if at < 0 {
			lines = append(lines, line)
		} else {
			lines[at] = line
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	switch {
	case at < 0:
		t.Errorf("%s has no %q line (run `go test -run %s -update` to add it)", path, key, t.Name())
	case lines[at] != line:
		t.Errorf("%s result drifted from %s:\n got %s\nwant %s\nresult %s", key, path, line, lines[at], js)
	}
}
