package trace

import (
	"bytes"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

func TestRingSnapshotWraps(t *testing.T) {
	r := NewFlightRecorder(Options{RingSize: 4})
	for i := 0; i < 6; i++ {
		r.Record(sim.Time(i), KindEmit, "host0", &pkt.Packet{ID: uint64(i)})
	}
	events, seq := r.Snapshot(AllEvents)
	if seq != 6 {
		t.Fatalf("seq = %d, want 6", seq)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want ring size 4", len(events))
	}
	for i, e := range events {
		if want := uint64(i + 2); e.ID != want { // oldest two overwritten
			t.Fatalf("event %d: id = %d, want %d", i, e.ID, want)
		}
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := NewFlightRecorder(Options{RingSize: 16})
	r.Record(1, KindEmit, "host0", &pkt.Packet{ID: 1, Tenant: 1})
	r.Record(2, KindDeliver, "host1", &pkt.Packet{ID: 1, Tenant: 1})
	r.Record(3, KindEmit, "host0", &pkt.Packet{ID: 2, Tenant: 2})
	r.RecordDrop(4, "leaf0", &pkt.Packet{ID: 2, Tenant: 2}, "overflow")

	if ev, _ := r.Snapshot(Filter{Tenant: 2}); len(ev) != 2 {
		t.Fatalf("tenant filter kept %d events, want 2", len(ev))
	}
	if ev, _ := r.Snapshot(Filter{Tenant: -1, Kinds: []string{KindDrop}}); len(ev) != 1 || ev[0].Cause != "overflow" {
		t.Fatalf("kind filter: %+v", ev)
	}
	ev, _ := r.Snapshot(Filter{Tenant: -1, Limit: 2})
	if len(ev) != 2 || ev[0].ID != 2 || ev[1].Kind != KindDrop {
		t.Fatalf("limit filter kept wrong tail: %+v", ev)
	}
	// Equal sequence numbers must imply identical snapshots (the ETag
	// contract): nothing recorded between the two calls.
	_, s1 := r.Snapshot(AllEvents)
	_, s2 := r.Snapshot(AllEvents)
	if s1 != s2 || s1 != 4 {
		t.Fatalf("seq unstable without writes: %d, %d", s1, s2)
	}
}

func TestRecordDropAndTransformFields(t *testing.T) {
	r := NewFlightRecorder(Options{RingSize: 8})
	p := &pkt.Packet{ID: 9, Flow: 3, Tenant: 2, Rank: 21}
	r.RecordTransform(100, "leaf0", p, 7)
	r.RecordDrop(200, "leaf0", p, "admission")
	ev, _ := r.Snapshot(AllEvents)
	if len(ev) != 2 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Kind != KindTransform || ev[0].PreRank != 7 || ev[0].Rank != 21 {
		t.Fatalf("transform event: %+v", ev[0])
	}
	if ev[1].Kind != KindDrop || ev[1].Cause != "admission" {
		t.Fatalf("drop event: %+v", ev[1])
	}
}

func TestStreamRecorderKeepsRingToo(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf, Options{RingSize: 8})
	r.Record(1, KindEmit, "host0", &pkt.Packet{ID: 1})
	ev, seq := r.Snapshot(AllEvents)
	if len(ev) != 1 || seq != 1 {
		t.Fatalf("ring missing alongside stream: %d events, seq %d", len(ev), seq)
	}
	if buf.Len() == 0 {
		t.Fatal("stream not written")
	}
	// A pure stream recorder has no ring; Snapshot still reports seq.
	r2 := NewRecorder(&buf, Options{})
	r2.Record(1, KindEmit, "", &pkt.Packet{})
	if ev, seq := r2.Snapshot(AllEvents); ev != nil || seq != 1 {
		t.Fatalf("ringless snapshot: %v, %d", ev, seq)
	}
}

// TestAllocBudgetRecorder pins the recorder's hot-path allocation budget:
// an unsampled Record (the common case at 1-in-N sampling) and a sampled
// ring write must both be allocation-free, so an always-on flight
// recorder preserves the data plane's zero-allocation guarantee.
func TestAllocBudgetRecorder(t *testing.T) {
	off := NewFlightRecorder(Options{FlowSample: 64, RingSize: 1 << 10})
	unsampled := &pkt.Packet{ID: 1, Flow: 1, Tenant: 1}
	if a := testing.AllocsPerRun(1000, func() {
		off.Record(0, KindEnqueue, "leaf0", unsampled)
	}); a != 0 {
		t.Fatalf("sampling-off Record allocates %.1f objects/op, budget is 0", a)
	}
	sampled := &pkt.Packet{ID: 2, Flow: 64, Tenant: 1}
	if a := testing.AllocsPerRun(1000, func() {
		off.Record(0, KindEnqueue, "leaf0", sampled)
		off.RecordDrop(0, "leaf0", sampled, "overflow")
		off.RecordTransform(0, "leaf0", sampled, 7)
	}); a != 0 {
		t.Fatalf("ring Record allocates %.1f objects/op, budget is 0", a)
	}
	var nilRec *Recorder
	if a := testing.AllocsPerRun(1000, func() {
		nilRec.Record(0, KindEnqueue, "leaf0", sampled)
	}); a != 0 {
		t.Fatalf("nil recorder allocates %.1f objects/op", a)
	}
}

// BenchmarkTraceOff is the cost a flight recorder adds to packets whose
// flow is not sampled: one modulo and a return.
func BenchmarkTraceOff(b *testing.B) {
	r := NewFlightRecorder(Options{FlowSample: 64})
	p := &pkt.Packet{ID: 1, Flow: 1, Tenant: 1, Rank: 10, Size: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(0, KindEnqueue, "leaf0", p)
	}
}

// BenchmarkTraceSampled is the cost of recording a sampled packet into
// the ring (lock, value copy, cursor bump — no encoding, no allocation).
func BenchmarkTraceSampled(b *testing.B) {
	r := NewFlightRecorder(Options{FlowSample: 64, RingSize: 1 << 16})
	p := &pkt.Packet{ID: 1, Flow: 64, Tenant: 1, Rank: 10, Size: 1500}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(0, KindEnqueue, "leaf0", p)
	}
}
