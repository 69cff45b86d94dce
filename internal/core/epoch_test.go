package core

import (
	"sync"
	"testing"
	"unsafe"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

func epochTestPolicy(t *testing.T, version uint64, hi int64) *JointPolicy {
	t.Helper()
	spec, err := policy.Parse("a >> b")
	if err != nil {
		t.Fatal(err)
	}
	jp, err := Synthesize([]*Tenant{
		{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: hi}},
		{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: hi}},
	}, spec, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jp.Version = version
	return jp
}

func TestEpochStoreLifecycle(t *testing.T) {
	s := NewEpochStore(UnknownWorst)
	if s.Current() != nil {
		t.Fatal("empty store has a current epoch")
	}
	if s.Acquire() != nil {
		t.Fatal("empty store acquired an epoch")
	}
	s.Release(7) // unknown generation: benign no-op

	e1 := s.Publish(epochTestPolicy(t, 1, 100), nil)
	if e1.Gen != 1 {
		t.Fatalf("first generation = %d, want 1", e1.Gen)
	}
	a := s.Acquire()
	if a != e1 || a.Inflight() != 1 {
		t.Fatalf("acquire: epoch %v inflight %d", a.Gen, a.Inflight())
	}

	// Supersede while a packet is still pinned: e1 drains.
	e2 := s.Publish(epochTestPolicy(t, 2, 100), nil)
	if e2.Gen != 2 {
		t.Fatalf("second generation = %d, want 2", e2.Gen)
	}
	if got := s.Current(); got != e2 {
		t.Fatalf("current = gen %d, want 2", got.Gen)
	}
	if s.Draining() != 1 {
		t.Fatalf("draining = %d, want 1", s.Draining())
	}
	g := s.Generations()
	if g.Published != 2 || g.Current == nil || g.Current.Gen != 2 {
		t.Fatalf("generations snapshot: %+v", g)
	}
	if len(g.Draining) != 1 || g.Draining[0].Gen != 1 || g.Draining[0].Inflight != 1 {
		t.Fatalf("draining snapshot: %+v", g.Draining)
	}

	// The pinned packet finishes on its start epoch; the store drains.
	s.Release(1)
	if s.Draining() != 0 {
		t.Fatalf("draining = %d after release, want 0", s.Draining())
	}
	if e1.Inflight() != 0 {
		t.Fatalf("e1 inflight = %d, want 0", e1.Inflight())
	}

	// Release on the live epoch takes the lock-free path.
	s.Acquire()
	s.Release(2)
	if e2.Inflight() != 0 {
		t.Fatalf("e2 inflight = %d, want 0", e2.Inflight())
	}
}

func TestEpochStoreGenerationNumbers(t *testing.T) {
	s := NewEpochStore(UnknownWorst)
	// Version 0 (policies synthesized outside the controller): the store
	// self-increments.
	if e := s.Publish(epochTestPolicy(t, 0, 100), nil); e.Gen != 1 {
		t.Fatalf("gen = %d, want 1", e.Gen)
	}
	// Version follows jp.Version when strictly increasing.
	if e := s.Publish(epochTestPolicy(t, 7, 100), nil); e.Gen != 7 {
		t.Fatalf("gen = %d, want 7", e.Gen)
	}
	// Non-increasing versions self-increment rather than colliding.
	if e := s.Publish(epochTestPolicy(t, 7, 100), nil); e.Gen != 8 {
		t.Fatalf("gen = %d, want 8", e.Gen)
	}
	if e := s.Publish(epochTestPolicy(t, 3, 100), nil); e.Gen != 9 {
		t.Fatalf("gen = %d, want 9", e.Gen)
	}
	if g := s.Generations(); g.Published != 4 {
		t.Fatalf("published = %d, want 4", g.Published)
	}
}

func TestEpochProcess(t *testing.T) {
	jp := epochTestPolicy(t, 1, 100)
	for _, tc := range []struct {
		action   UnknownTenantAction
		keep     bool
		wantRank int64
	}{
		{UnknownWorst, true, jp.Output.Hi + 1},
		{UnknownPass, true, 42},
		{UnknownDrop, false, 42},
	} {
		s := NewEpochStore(tc.action)
		e := s.Publish(jp, nil)
		// Known tenant: the transform applies exactly as the
		// pre-processor's would.
		p := &pkt.Packet{Tenant: 1, Rank: 10}
		want := jp.Transforms[1].Apply(10)
		if !e.Process(p) || p.Rank != want {
			t.Fatalf("known tenant: rank %d, want %d", p.Rank, want)
		}
		// Unknown tenant follows the configured action.
		p = &pkt.Packet{Tenant: 99, Rank: 42}
		if keep := e.Process(p); keep != tc.keep || p.Rank != tc.wantRank {
			t.Errorf("action %v: keep=%v rank=%d, want keep=%v rank=%d",
				tc.action, keep, p.Rank, tc.keep, tc.wantRank)
		}
	}
}

// TestEpochStoreConcurrent hammers Acquire/Release from many goroutines
// racing a publisher, then checks conservation: every pin released, no
// epoch stuck draining. Run with -race in CI.
func TestEpochStoreConcurrent(t *testing.T) {
	s := NewEpochStore(UnknownWorst)
	s.Publish(epochTestPolicy(t, 1, 100), nil)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := s.Acquire()
				if e == nil {
					t.Error("nil epoch after first publish")
					return
				}
				if e.Policy == nil {
					t.Error("epoch without policy")
					return
				}
				p := &pkt.Packet{Tenant: 1, Rank: int64(i % 100)}
				e.Process(p)
				s.Release(e.Gen)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := uint64(2); v <= 50; v++ {
			s.Publish(epochTestPolicy(t, v, 100+int64(v)), nil)
		}
	}()
	wg.Wait()
	<-done

	if d := s.Draining(); d != 0 {
		t.Errorf("draining = %d after all releases, want 0", d)
	}
	if cur := s.Current(); cur.Inflight() != 0 {
		t.Errorf("current inflight = %d, want 0", cur.Inflight())
	}
	if g := s.Generations(); g.Published != 50 {
		t.Errorf("published = %d, want 50", g.Published)
	}
}

// TestEpochInflightOwnsItsCacheLine pins the layout Epoch's padding exists
// for: no other field of the epoch, and no heap neighbour of it, within a
// cache line of the counter readers hammer.
func TestEpochInflightOwnsItsCacheLine(t *testing.T) {
	var e Epoch
	off, size := unsafe.Offsetof(e.inflight), unsafe.Sizeof(e)
	if before, after := off-unsafe.Offsetof(e.action)-unsafe.Sizeof(e.action), size-off-unsafe.Sizeof(e.inflight); before < cacheLine-8 || after < cacheLine-8 {
		t.Fatalf("inflight has %d bytes of padding before and %d after, want >= %d each", before, after, cacheLine-8)
	}
}
