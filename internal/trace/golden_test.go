package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("%s drifted from golden file %s:\n--- got\n%s--- want\n%s", t.Name(), path, got, want)
	}
}

// goldenEvents is a small deterministic lifecycle covering every event
// kind and every analyzer edge: a fully traced two-hop delivery with a
// rank transform, a delivered packet on a second tenant, an evicted
// packet, an overflow drop, and an in-flight loss.
func goldenEvents() []Event {
	events, _ := goldenRecorder(64).Snapshot(AllEvents)
	return events
}

// goldenRecorder records goldenEvents' 21 events into a flight recorder
// whose ring holds ring of them.
func goldenRecorder(ring int) *Recorder {
	rec := NewFlightRecorder(Options{RingSize: ring})
	us := func(n int64) sim.Time { return sim.Time(n * 1000) }

	// Packet 1 (tenant 1): host0 → leaf0 → host2, rank 7 → 21 at leaf0.
	p1 := &pkt.Packet{ID: 1, Flow: 10, Tenant: 1, Rank: 7, Size: 1500, Src: 0, Dst: 2, Kind: pkt.Data}
	rec.Record(us(1), KindEmit, "host0", p1)
	rec.Record(us(1), KindEnqueue, "host0→leaf0", p1)
	rec.Record(us(3), KindDequeue, "host0→leaf0", p1)
	rec.Record(us(4), KindArrive, "leaf0", p1)
	p1.Rank = 21
	rec.RecordTransform(us(4), "leaf0", p1, 7)
	rec.Record(us(4), KindEnqueue, "leaf0→host2", p1)
	rec.Record(us(9), KindDequeue, "leaf0→host2", p1)
	rec.Record(us(10), KindDeliver, "host2", p1)

	// Packet 2 (tenant 2): delivered after one hop.
	p2 := &pkt.Packet{ID: 2, Flow: 20, Tenant: 2, Rank: 5, Size: 400, Src: 1, Dst: 3, Kind: pkt.Datagram}
	rec.Record(us(2), KindEmit, "host1", p2)
	rec.Record(us(2), KindEnqueue, "host1→leaf0", p2)
	rec.Record(us(6), KindDequeue, "host1→leaf0", p2)
	rec.Record(us(7), KindArrive, "leaf0", p2)
	rec.Record(us(7), KindEnqueue, "leaf0→host3", p2)
	rec.Record(us(8), KindDequeue, "leaf0→host3", p2)
	rec.Record(us(9), KindDeliver, "host3", p2)

	// Packet 3 (tenant 2): evicted from the leaf queue.
	p3 := &pkt.Packet{ID: 3, Flow: 20, Tenant: 2, Rank: 90, Size: 400, Src: 1, Dst: 3, Kind: pkt.Datagram}
	rec.Record(us(3), KindEmit, "host1", p3)
	rec.Record(us(3), KindEnqueue, "host1→leaf0", p3)
	rec.RecordDrop(us(5), "host1→leaf0", p3, "evicted")

	// Packet 4 (tenant 1): refused outright for lack of buffer space.
	p4 := &pkt.Packet{ID: 4, Flow: 10, Tenant: 1, Rank: 50, Size: 1500, Src: 0, Dst: 2, Kind: pkt.Data}
	rec.Record(us(5), KindEmit, "host0", p4)
	rec.RecordDrop(us(5), "host0→leaf0", p4, "overflow")

	// Packet 5 (tenant 1): emitted, never resolved — an in-flight loss.
	p5 := &pkt.Packet{ID: 5, Flow: 10, Tenant: 1, Rank: 8, Size: 1500, Src: 0, Dst: 2, Kind: pkt.Data}
	rec.Record(us(6), KindEmit, "host0", p5)
	return rec
}

// TestPerfettoGolden pins the Chrome trace-event JSON rendering: queue
// and tx duration spans per hop, instants for emit/transform/deliver/
// drop, and the pid/tid metadata that names tenants and flows in the
// Perfetto UI.
func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "perfetto", buf.String())
}

// TestExportPerfetto: the file the CLIs write is WritePerfetto's golden
// rendering of the ring, and a wrapped ring is reported.
func TestExportPerfetto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var log bytes.Buffer
	if err := ExportPerfetto(path, goldenRecorder(64), &log); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "perfetto", string(got))
	if want := "trace: 21 events rendered to " + path + "\n"; log.String() != want {
		t.Errorf("log = %q, want %q", log.String(), want)
	}

	log.Reset()
	if err := ExportPerfetto(path, goldenRecorder(8), &log); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(log.String(), "trace: ring wrapped, keeping the most recent 8 of 21 events") {
		t.Errorf("no wrap note for an 8-event ring: %q", log.String())
	}
}

// TestAttributionGolden pins the latency-attribution report: per-stage
// distributions (queueing vs. transform vs. transmission), the per-hop
// breakdown, and the drop-cause table including the analyzer-assigned
// in-flight loss.
func TestAttributionGolden(t *testing.T) {
	var buf bytes.Buffer
	Attribute(goldenEvents()).WriteReport(&buf)
	checkGolden(t, "attribution", buf.String())
}

// TestAttributionNumbers spot-checks the arithmetic behind the golden
// file: packet 1 queues 2µs+5µs and spends 1µs+1µs on the wire.
func TestAttributionNumbers(t *testing.T) {
	at := Attribute(goldenEvents())
	var t1 *TenantAttribution
	for i := range at.Tenants {
		if at.Tenants[i].Tenant == 1 {
			t1 = &at.Tenants[i]
		}
	}
	if t1 == nil {
		t.Fatal("tenant 1 missing")
	}
	if t1.Packets != 1 {
		t.Fatalf("tenant 1 delivered packets = %d, want 1", t1.Packets)
	}
	if want := 7 * sim.Microsecond; t1.Queueing.Mean != want {
		t.Fatalf("queueing mean = %v, want %v", t1.Queueing.Mean, want)
	}
	if want := 2 * sim.Microsecond; t1.Transmission.Mean != want {
		t.Fatalf("transmission mean = %v, want %v", t1.Transmission.Mean, want)
	}
	if want := 9 * sim.Microsecond; t1.Sojourn.Mean != want {
		t.Fatalf("sojourn mean = %v, want %v", t1.Sojourn.Mean, want)
	}
	if t1.Drops["overflow"] != 1 || t1.Drops[CauseInFlight] != 1 {
		t.Fatalf("tenant 1 drops: %+v", t1.Drops)
	}
	for _, ta := range at.Tenants {
		if ta.Tenant == 2 && ta.Drops["evicted"] != 1 {
			t.Fatalf("tenant 2 drops: %+v", ta.Drops)
		}
	}
}
