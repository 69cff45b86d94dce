package trace

import (
	"fmt"
	"testing"

	"qvisor/internal/pkt"
)

// TestRecordFilterComposition pins the record-time filter semantics when
// both filters run together: an event is recorded iff it passes the flow
// sample AND the kind list, whatever its tenant. One filter must never
// mask the other's decision, and the flow sample must stay flow-consistent
// (all-or-nothing per flow) within the composition.
func TestRecordFilterComposition(t *testing.T) {
	rec := NewFlightRecorder(Options{
		FlowSample: 2,
		Kinds:      []string{KindEnqueue, KindDrop},
	})
	type stim struct {
		flow   uint64
		tenant pkt.TenantID
		kind   string
	}
	var want []stim
	id := uint64(0)
	for _, flow := range []uint64{0, 1, 2, 3} {
		for _, tenant := range []pkt.TenantID{1, 2} {
			for _, kind := range []string{KindEnqueue, KindDequeue, KindDrop} {
				id++
				p := &pkt.Packet{ID: id, Flow: flow, Tenant: tenant, Rank: 5, Size: 100}
				if kind == KindDrop {
					rec.RecordDrop(10, "port", p, "overflow")
				} else {
					rec.Record(10, kind, "port", p)
				}
				if flow%2 == 0 && kind != KindDequeue {
					want = append(want, stim{flow, tenant, kind})
				}
			}
		}
	}
	events, _ := rec.Snapshot(AllEvents)
	if len(events) != len(want) {
		t.Fatalf("recorded %d events, want %d (sample∩kind)", len(events), len(want))
	}
	for i, e := range events {
		w := want[i]
		if e.Flow != w.flow || pkt.TenantID(e.Tenant) != w.tenant || e.Kind != w.kind {
			t.Errorf("event %d = flow %d/tenant %d/%s, want flow %d/tenant %d/%s",
				i, e.Flow, e.Tenant, e.Kind, w.flow, w.tenant, w.kind)
		}
	}
	// Flow consistency within the composition: every surviving flow kept
	// ALL its matching events — no flow appears partially.
	perFlow := map[uint64]int{}
	for _, e := range events {
		perFlow[e.Flow]++
	}
	for flow, n := range perFlow {
		if n != 4 { // enqueue + drop for each of the two tenants
			t.Errorf("flow %d kept %d events, want 4 — sampling not flow-consistent", flow, n)
		}
	}
}

// TestRecordFilterCompositionTransform: RecordTransform and RecordDrop
// apply the same composed predicate as Record — the specialized entry
// points must not bypass any filter.
func TestRecordFilterCompositionTransform(t *testing.T) {
	rec := NewFlightRecorder(Options{
		FlowSample: 4,
		Kinds:      []string{KindTransform},
	})
	cases := []struct {
		flow   uint64
		tenant pkt.TenantID
		keep   bool
	}{
		{0, 7, true},  // sampled flow
		{4, 7, true},  // sampled flow
		{1, 7, false}, // unsampled flow
		{0, 8, true},  // sampled flow, another tenant
		{3, 9, false}, // unsampled flow, another tenant
	}
	for i, c := range cases {
		p := &pkt.Packet{ID: uint64(i + 1), Flow: c.flow, Tenant: c.tenant, Rank: 20}
		rec.RecordTransform(5, "preproc", p, 40)
		rec.RecordDrop(5, "port", p, "overflow") // KindDrop unlisted: never kept
		rec.Record(5, KindEnqueue, "port", p)    // KindEnqueue unlisted: never kept
	}
	events, _ := rec.Snapshot(AllEvents)
	var kept int
	for _, c := range cases {
		if c.keep {
			kept++
		}
	}
	if len(events) != kept {
		t.Fatalf("recorded %d events, want %d", len(events), kept)
	}
	for _, e := range events {
		if e.Kind != KindTransform || e.Flow%4 != 0 {
			t.Errorf("event leaked through composed filters: %+v", e)
		}
		if e.PreRank != 40 {
			t.Errorf("transform event lost PreRank: %+v", e)
		}
	}
}

// TestRecordFilterCompositionAgainstModel cross-checks the composed
// record-time filters against an oracle predicate over a pseudo-random
// stimulus stream, for several filter configurations.
func TestRecordFilterCompositionAgainstModel(t *testing.T) {
	configs := []Options{
		{FlowSample: 3},
		{FlowSample: 1}, // like zero: every flow
		{Kinds: []string{KindDequeue}},
		{FlowSample: 3, Kinds: []string{KindEnqueue}},
		{FlowSample: 5, Kinds: []string{KindEnqueue, KindDeliver}},
		{FlowSample: 2, Kinds: []string{KindDrop}},
	}
	kinds := []string{KindEnqueue, KindDequeue, KindDeliver, KindDrop}
	for ci, opts := range configs {
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			rec := NewFlightRecorder(opts)
			oracle := func(flow uint64, kind string) bool {
				if s := opts.FlowSample; s > 1 && flow%s != 0 {
					return false
				}
				if opts.Kinds != nil {
					ok := false
					for _, want := range opts.Kinds {
						if kind == want {
							ok = true
						}
					}
					if !ok {
						return false
					}
				}
				return true
			}
			want := 0
			// Deterministic pseudo-random stimulus (LCG, seeded per config).
			state := uint64(ci)*2654435761 + 12345
			next := func(n uint64) uint64 {
				state = state*6364136223846793005 + 1442695040888963407
				return (state >> 33) % n
			}
			for i := 0; i < 500; i++ {
				flow := next(10)
				tenant := pkt.TenantID(next(6))
				kind := kinds[next(uint64(len(kinds)))]
				p := &pkt.Packet{ID: uint64(i + 1), Flow: flow, Tenant: tenant, Rank: 1}
				if kind == KindDrop {
					rec.RecordDrop(1, "x", p, "overflow")
				} else {
					rec.Record(1, kind, "x", p)
				}
				if oracle(flow, kind) {
					want++
				}
			}
			if got := int(rec.Count()); got != want {
				t.Fatalf("recorded %d events, oracle says %d", got, want)
			}
		})
	}
}
