package pifotree

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// traceTree drives a tree with a seeded mix of enqueues and dequeues, a
// Reset two thirds of the way in, and a final drain. It returns one token
// per event: "d<id>" for a dequeue, "x<id>/<cause>" for a drop.
func traceTree(tr *Tree, seed int64, tenants int) []string {
	var events []string
	tr.cfg.OnDrop = func(p *pkt.Packet, c sched.DropCause) {
		events = append(events, fmt.Sprintf("x%d/%v", p.ID, c))
	}
	rng := rand.New(rand.NewSource(seed))
	const steps = 900
	for step := 0; step < steps; step++ {
		switch {
		case step == 2*steps/3:
			tr.Reset()
			events = append(events, "reset")
		case rng.Intn(5) < 3:
			tr.Enqueue(&pkt.Packet{ID: uint64(step + 1), Tenant: pkt.TenantID(1 + rng.Intn(tenants)),
				Flow: uint64(rng.Intn(5)), Rank: rng.Int63n(6), Size: 100 * (1 + rng.Intn(15))})
		default:
			if p := tr.Dequeue(); p != nil {
				events = append(events, fmt.Sprintf("d%d", p.ID))
			}
		}
	}
	for p := tr.Dequeue(); p != nil; p = tr.Dequeue() {
		events = append(events, fmt.Sprintf("d%d", p.ID))
	}
	return events
}

// threeLevel is root → {prod, dev}; prod → {web, db}; dev → {ci, batch}.
// Every transaction has only two or three values, so each node's PIFO is
// mostly ties and FIFO order among equal ranks decides the output.
func threeLevel(t *testing.T) *Tree {
	t.Helper()
	leaves := []string{"web", "db", "ci", "batch"}
	classify := func(p *pkt.Packet) string {
		if i := int(p.Tenant) - 1; i < len(leaves) {
			return leaves[i]
		}
		return "nowhere"
	}
	tr := NewTree(sched.Config{CapacityBytes: 12000}, func(p *pkt.Packet) int64 { return p.Rank % 2 }, classify)
	for _, in := range []struct{ parent, name string }{{"root", "prod"}, {"root", "dev"}} {
		if err := tr.AddInterior(in.parent, in.name, func(p *pkt.Packet) int64 { return p.Rank % 3 }); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		parent, name string
		tx           Transaction
	}{
		{"prod", "web", func(p *pkt.Packet) int64 { return p.Rank / 2 }},
		{"prod", "db", nil},
		{"dev", "ci", func(p *pkt.Packet) int64 { return int64(p.Flow % 2) }},
		{"dev", "batch", nil},
	} {
		if err := tr.AddLeaf(l.parent, l.name, l.tx); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestTreeGolden pins the dequeue order and drop causes of an HPFQ tree
// and a three-level tree with tied transaction ranks, at tight buffers
// and with packets classified to leaves the tree does not have.
func TestTreeGolden(t *testing.T) {
	var out strings.Builder
	groups := map[pkt.TenantID]string{1: "A", 2: "B", 3: "C", 4: "ghost"}
	for seed := int64(1); seed <= 3; seed++ {
		hpfq, err := NewHPFQ(sched.Config{CapacityBytes: 9000}, []string{"A", "B", "C"}, classifyByTenant(groups))
		if err != nil {
			t.Fatal(err)
		}
		writeWrapped(&out, fmt.Sprintf("hpfq seed %d", seed), traceTree(hpfq, seed, 4))
		writeWrapped(&out, fmt.Sprintf("three-level seed %d", seed), traceTree(threeLevel(t), seed, 5))
	}
	path := filepath.Join("testdata", "tree.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// writeWrapped writes a titled token list, twelve tokens per line.
func writeWrapped(b *strings.Builder, title string, tokens []string) {
	fmt.Fprintf(b, "# %s: %d events\n", title, len(tokens))
	for i := 0; i < len(tokens); i += 12 {
		b.WriteString(strings.Join(tokens[i:min(i+12, len(tokens))], " "))
		b.WriteByte('\n')
	}
}
