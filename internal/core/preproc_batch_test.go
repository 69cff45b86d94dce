package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// Satellite tests for the batched pre-processor path: ApplyBatch must be
// byte-identical to calling Process on each packet in order — same output
// ranks, same stats counters, same drop decisions — across every
// UnknownTenantAction and regardless of where batch boundaries fall. (The
// differential test against the Transform.Apply spec, over every entry
// point, ID layout and metrics setting, is TestRewriteKernelMatchesSpec.)

// batchPolicy synthesizes a policy exercising every flat-table regime:
// weighted sharing (Weight > 1), a strict tier, a single-level tenant
// (degenerate quantizer → constant output), and a wide span.
func batchPolicy(t testing.TB) *JointPolicy {
	t.Helper()
	tenants := []*Tenant{
		{ID: 1, Name: "T1", Bounds: rank.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: rank.Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 16}, Levels: 64},
		{ID: 4, Name: "T4", Bounds: rank.Bounds{Lo: 5, Hi: 5}, Levels: 1},
	}
	jp, err := Synthesize(tenants, policy.MustParse("T1 >> T2*2 + T3 >> T4"), SynthOptions{Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

// mixPackets builds a seeded random packet mix over the policy's tenants
// plus unknown tenants, with ranks spanning in-bounds, clamped-low,
// clamped-high, and int64-extreme values.
func mixPackets(jp *JointPolicy, rng *rand.Rand, n int) []*pkt.Packet {
	ids := make([]pkt.TenantID, 0, len(jp.Transforms)+2)
	for id := range jp.Transforms {
		ids = append(ids, id)
	}
	ids = append(ids, 999, pkt.NoTenant) // unknown tenants
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		var r int64
		switch rng.Intn(8) {
		case 0:
			r = rng.Int63n(1 << 40)
		case 1:
			r = -rng.Int63n(1 << 40)
		case 2:
			r = math.MaxInt64 - rng.Int63n(4)
		case 3:
			r = -(int64(1) << 62)
		default:
			r = rng.Int63n(1 << 17)
		}
		ps[i] = &pkt.Packet{
			ID:     uint64(i),
			Tenant: ids[rng.Intn(len(ids))],
			Rank:   r,
			Size:   64,
		}
	}
	return ps
}

// copyPackets deep-copies a batch so both processing paths see identical
// inputs.
func copyPackets(ps []*pkt.Packet) []*pkt.Packet {
	out := make([]*pkt.Packet, len(ps))
	for i, p := range ps {
		c := *p
		out[i] = &c
	}
	return out
}

// referenceBatch is the spec: per-packet Process with ApplyBatch's
// kept/dropped compaction contract.
func referenceBatch(pp *Preprocessor, ps []*pkt.Packet) int {
	kept := 0
	var dropped []*pkt.Packet
	for _, p := range ps {
		if pp.Process(p) {
			ps[kept] = p
			kept++
		} else {
			dropped = append(dropped, p)
		}
	}
	copy(ps[kept:], dropped)
	return kept
}

// TestApplyBatchMatchesProcess: differential check across every unknown-
// tenant action and several seeds — the batched fast path must reproduce
// the per-packet path exactly (ranks, order, drop set, stats).
func TestApplyBatchMatchesProcess(t *testing.T) {
	jp := batchPolicy(t)
	if buildFlatTable(jp) == nil {
		t.Fatal("batchPolicy unexpectedly fell back to the sparse path")
	}
	for _, action := range []UnknownTenantAction{UnknownWorst, UnknownPass, UnknownDrop} {
		for seed := int64(1); seed <= 4; seed++ {
			got := NewPreprocessor(jp, action)
			want := NewPreprocessor(jp, action)
			ps := mixPackets(jp, rand.New(rand.NewSource(seed)), 500)
			ref := copyPackets(ps)

			keptGot := got.ApplyBatch(ps)
			keptWant := referenceBatch(want, ref)

			if keptGot != keptWant {
				t.Fatalf("%v seed %d: kept %d, want %d", action, seed, keptGot, keptWant)
			}
			for i := range ps {
				if ps[i].ID != ref[i].ID || ps[i].Rank != ref[i].Rank {
					t.Fatalf("%v seed %d: packet[%d] = id %d rank %d, want id %d rank %d",
						action, seed, i, ps[i].ID, ps[i].Rank, ref[i].ID, ref[i].Rank)
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%v seed %d: stats %+v, want %+v", action, seed, got.Stats(), want.Stats())
			}
		}
	}
}

// TestApplyBatchBoundaryMetamorphic: splitting one stream into batches at
// any boundary must not change any packet's output rank or the aggregate
// stats — batching is an amortization, never a semantic boundary.
func TestApplyBatchBoundaryMetamorphic(t *testing.T) {
	jp := batchPolicy(t)
	base := mixPackets(jp, rand.New(rand.NewSource(21)), 96)
	whole := NewPreprocessor(jp, UnknownDrop)
	wholePs := copyPackets(base)
	whole.ApplyBatch(wholePs)
	rankOf := make(map[uint64]int64, len(wholePs))
	for _, p := range wholePs {
		rankOf[p.ID] = p.Rank
	}
	for cut := 0; cut <= len(base); cut += 7 {
		split := NewPreprocessor(jp, UnknownDrop)
		ps := copyPackets(base)
		split.ApplyBatch(ps[:cut])
		split.ApplyBatch(ps[cut:])
		for _, p := range ps {
			if p.Rank != rankOf[p.ID] {
				t.Fatalf("cut %d: packet %d rank %d, want %d", cut, p.ID, p.Rank, rankOf[p.ID])
			}
		}
		if split.Stats() != whole.Stats() {
			t.Fatalf("cut %d: stats %+v, want %+v", cut, split.Stats(), whole.Stats())
		}
	}
}

// sparseIDPolicy is batchPolicy's shape over tenant IDs at both ends of
// the ID space, where a table indexed directly by ID would not fit.
func sparseIDPolicy(t testing.TB) *JointPolicy {
	t.Helper()
	tenants := []*Tenant{
		{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 40000, Name: "B", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 16}, Levels: 64},
		{ID: 65535, Name: "C", Bounds: rank.Bounds{Lo: 5, Hi: 5}, Levels: 1},
	}
	jp, err := Synthesize(tenants, policy.MustParse("A >> B*2 + C"), SynthOptions{Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

// allocBudgetPreprocs is every configuration the rewrite kernel must treat
// alike: dense and sparse tenant IDs, metrics off and on.
func allocBudgetPreprocs(t *testing.T, f func(t *testing.T, pp *Preprocessor, ps []*pkt.Packet)) {
	for name, jp := range map[string]*JointPolicy{"dense": batchPolicy(t), "sparse": sparseIDPolicy(t)} {
		for _, instrumented := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/metrics=%v", name, instrumented), func(t *testing.T) {
				pp := NewPreprocessor(jp, UnknownDrop)
				if instrumented {
					pp.EnableMetrics(obs.NewRegistry(), nil)
				}
				f(t, pp, mixPackets(jp, rand.New(rand.NewSource(31)), 256))
			})
		}
	}
}

// TestAllocBudgetPreprocBatch pins the batched pre-processor at 0 allocs
// per batch once the drop scratch has warmed.
func TestAllocBudgetPreprocBatch(t *testing.T) {
	allocBudgetPreprocs(t, func(t *testing.T, pp *Preprocessor, ps []*pkt.Packet) {
		batch := make([]*pkt.Packet, len(ps))
		run := func() {
			copy(batch, ps)
			pp.ApplyBatch(batch)
		}
		run() // warm the drop scratch
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("ApplyBatch allocates %.1f times per batch, want 0", avg)
		}
	})
}

// TestAllocBudgetPreprocProcess pins the per-packet entry point — the same
// kernel at n=1 — at 0 allocs per packet, frames included.
func TestAllocBudgetPreprocProcess(t *testing.T) {
	allocBudgetPreprocs(t, func(t *testing.T, pp *Preprocessor, ps []*pkt.Packet) {
		frame := make([]byte, pkt.LabelSize)
		run := func() {
			for _, p := range ps {
				pp.Process(p)
			}
			l := pkt.Label{Version: pkt.LabelVersion, Tenant: 1, Rank: 8}
			l.Encode(frame)
			if err := pp.ProcessFrame(frame); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("Process allocates %.1f times per %d packets, want 0", avg, len(ps))
		}
	})
}

// BenchmarkPreprocBatch measures the batched path against the equivalent
// per-packet Process loop over the same 256-packet batch.
func BenchmarkPreprocBatch(b *testing.B) {
	jp := batchPolicy(b)
	ps := mixPackets(jp, rand.New(rand.NewSource(41)), 256)
	batch := make([]*pkt.Packet, len(ps))
	b.Run("batch", func(b *testing.B) {
		pp := NewPreprocessor(jp, UnknownWorst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(batch, ps)
			pp.ApplyBatch(batch)
		}
	})
	b.Run("process", func(b *testing.B) {
		pp := NewPreprocessor(jp, UnknownWorst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(batch, ps)
			for _, p := range batch {
				pp.Process(p)
			}
		}
	})
}
