package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// tableProbes returns, for every tenant of jp and the given unknown IDs,
// packets at the int64 extremes and just outside, at and inside the
// tenant's bounds.
func tableProbes(jp *JointPolicy, unknown ...pkt.TenantID) []pkt.Packet {
	var out []pkt.Packet
	add := func(id pkt.TenantID, ranks ...int64) {
		for _, r := range ranks {
			out = append(out, pkt.Packet{Tenant: id, Rank: r})
		}
	}
	for id, tr := range jp.Transforms {
		add(id, math.MinInt64, math.MaxInt64, tr.Lo-1, tr.Lo, tr.Lo+(tr.Hi-tr.Lo)/2, tr.Hi, tr.Hi+1)
	}
	for _, id := range unknown {
		add(id, math.MinInt64, math.MaxInt64, 0, 42)
	}
	return out
}

// checkTableMatchesMap rewrites the probes through the epoch the store
// publishes for jp, and through a pre-processor pinned to it, and compares
// both with a table compiled from jp's transform map.
func checkTableMatchesMap(t *testing.T, where string, s *EpochStore, pp **Preprocessor, jp *JointPolicy, unknown ...pkt.TenantID) {
	t.Helper()
	e := s.Publish(jp, nil)
	if *pp == nil {
		*pp = e.Preprocessor()
	} else {
		(*pp).Pin(e)
	}
	ref := buildFlatTable(jp)
	for _, in := range tableProbes(jp, unknown...) {
		want, viaEpoch, viaPin := in, in, in
		wantKeep := ref.rewrite([]*pkt.Packet{&want}, s.action, nil) == 1
		if keep := e.Process(&viaEpoch); keep != wantKeep || viaEpoch.Rank != want.Rank {
			t.Fatalf("%s: epoch rewrites tenant %d rank %d to (%d, keep %v), map table to (%d, keep %v)",
				where, in.Tenant, in.Rank, viaEpoch.Rank, keep, want.Rank, wantKeep)
		}
		if keep := (*pp).Process(&viaPin); keep != wantKeep || viaPin.Rank != want.Rank {
			t.Fatalf("%s: pinned pre-processor rewrites tenant %d rank %d to (%d, keep %v), map table to (%d, keep %v)",
				where, in.Tenant, in.Rank, viaPin.Rank, keep, want.Rank, wantKeep)
		}
	}
}

// TestSynthesizedTableMatchesMap replays TestResynthesizeDifferential's
// seeded churn sequences — joins, leaves, ID reuse across sequences,
// bounds, level, weight and spec edits — and checks that in every
// generation, incremental and full, the published epoch rewrites every
// registered tenant, three unknown IDs and the int64 extremes exactly as a
// table compiled from the policy's transform map does.
func TestSynthesizedTableMatchesMap(t *testing.T) {
	const sequences = 220
	const steps = 12
	actions := []UnknownTenantAction{UnknownWorst, UnknownPass, UnknownDrop}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		st := &randomChurnState{rng: rng, nextID: 1}
		for i := 0; i < 2+rng.Intn(10); i++ {
			st.addTenant(t)
		}
		opts := SynthOptions{}
		if seq%3 == 1 {
			opts = SynthOptions{DefaultLevels: 16, PreferenceBias: 0.25, Base: 1}
		}
		rs := NewResynthesizer(opts)
		incStore, fullStore := NewEpochStore(actions[seq%3]), NewEpochStore(actions[seq%3])
		var incPP, fullPP *Preprocessor
		for s := 0; s < steps; s++ {
			st.mutate(t)
			unknown := []pkt.TenantID{0, st.nextID, pkt.NoTenant}
			inc, err := rs.Resynthesize(st.tenants, st.spec)
			if err != nil {
				continue // TestResynthesizeDifferential checks the errors agree
			}
			checkTableMatchesMap(t, fmt.Sprintf("seq %d step %d incremental", seq, s), incStore, &incPP, inc, unknown...)
			full, err := Synthesize(st.tenants, st.spec, opts)
			if err != nil {
				t.Fatalf("seq %d step %d: full synthesis fails where incremental did not: %v", seq, s, err)
			}
			checkTableMatchesMap(t, fmt.Sprintf("seq %d step %d full", seq, s), fullStore, &fullPP, full, unknown...)
		}
	}
}

// sharedIndexPolicy is an n-tenant set across 8-wide shared tiers.
func sharedIndexPolicy(t testing.TB, n int) ([]*Tenant, *policy.Spec) {
	t.Helper()
	tenants := make([]*Tenant, n)
	var sb strings.Builder
	for i := range tenants {
		tenants[i] = &Tenant{ID: pkt.TenantID(3 * (i + 1)), Name: fmt.Sprintf("s%d", i),
			Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 16}
		if i > 0 {
			sb.WriteString(map[bool]string{true: " >> ", false: " + "}[i%8 == 0])
		}
		sb.WriteString(tenants[i].Name)
	}
	return tenants, policy.MustParse(sb.String())
}

// TestEpochStoreSharedIndexConcurrent publishes bounds-only generations —
// the same tenant IDs in the same order every time — while readers pin,
// rewrite under and unpin the live epoch, each rewrite checked against
// the pinned generation's Transform.Apply. Run with -race: generations
// that share compiled state must never write it.
func TestEpochStoreSharedIndexConcurrent(t *testing.T) {
	tenants, spec := sharedIndexPolicy(t, 64)
	rs := NewResynthesizer(SynthOptions{})
	s := NewEpochStore(UnknownWorst)
	jp, err := rs.Resynthesize(tenants, spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(jp, nil)

	const readers = 4
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				e := s.Acquire()
				tn := tenants[rng.Intn(len(tenants))]
				p := pkt.Packet{Tenant: tn.ID, Rank: rng.Int63n(1200)}
				want := e.Policy.Transforms[tn.ID].Apply(p.Rank)
				if !e.Process(&p) || p.Rank != want {
					t.Errorf("gen %d tenant %d: rank %d, want %d", e.Gen, tn.ID, p.Rank, want)
				}
				s.Release(e.Gen)
			}
		}(w)
	}
	local := append([]*Tenant(nil), tenants...)
	for v := 0; v < 50; v++ {
		k := v * 7 % len(local)
		nt := *local[k]
		nt.Bounds.Hi += int64(1 + v%5)
		local[k] = &nt
		next, err := rs.Resynthesize(local, spec)
		if err != nil {
			t.Fatal(err)
		}
		if &next.tab.index[0] != &jp.tab.index[0] {
			t.Fatalf("update %d: a generation over the same IDs laid out a new index", v)
		}
		s.Publish(next, nil)
	}
	wg.Wait()
	if d := s.Draining(); d != 0 {
		t.Errorf("draining = %d after all releases, want 0", d)
	}
}

// TestAssembleRewritesMovedTiers: a tier whose cached synthesis and base
// are unchanged but whose slots moved — a tenant left a tier above it
// without changing that tier's width — is written at its new slots, not
// left as the previous table had them.
func TestAssembleRewritesMovedTiers(t *testing.T) {
	a := &Tenant{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 64}
	b := &Tenant{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 5, Hi: 5}}
	m := &Tenant{ID: 3, Name: "m", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 8}
	c := &Tenant{ID: 4, Name: "c", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 8}
	rs := NewResynthesizer(SynthOptions{})
	s := NewEpochStore(UnknownWorst)
	var pp *Preprocessor
	// "a > b" is as wide as "a" alone: b's one level sits inside a's band.
	first, err := rs.Resynthesize([]*Tenant{a, b, m, c}, policy.MustParse("a > b >> m >> c"))
	if err != nil {
		t.Fatal(err)
	}
	checkTableMatchesMap(t, "before the move", s, &pp, first)
	second, err := rs.Resynthesize([]*Tenant{a, m, c, b}, policy.MustParse("a >> m >> c + b"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Tiers[1].Bounds != second.Tiers[1].Bounds || rs.Stats().TierHits == 0 {
		t.Fatalf("m's tier moved band or missed the cache: %v then %v, %+v", first.Tiers[1].Bounds, second.Tiers[1].Bounds, rs.Stats())
	}
	checkTableMatchesMap(t, "after the move", s, &pp, second)
}

// TestGenerationSharesUnchangedTiers: at 1024 tenants in tiers of 32, a
// one-tenant bounds update makes one new block and shares the other 31
// tiers' compiled slots, the ID→slot index and the slot→block map with the
// previous generation; a width change in tier 0 moves every later block to
// its new base, its slots still shared. Every generation rewrites as
// Transform.Apply.
func TestGenerationSharesUnchangedTiers(t *testing.T) {
	tenants, spec := benchPolicy(t, 1024)
	rs := NewResynthesizer(SynthOptions{})
	s := NewEpochStore(UnknownWorst)
	prev, err := rs.Resynthesize(tenants, spec)
	if err != nil {
		t.Fatal(err)
	}
	step := func(where string, edit int, change func(*Tenant), moved bool) {
		t.Helper()
		nt := *tenants[edit]
		change(&nt)
		tenants[edit] = &nt
		jp, err := rs.Resynthesize(tenants, spec)
		if err != nil {
			t.Fatal(err)
		}
		e := s.Publish(jp, nil)
		old, tab := prev.tab, e.tab
		if len(tab.blocks) != 32 || len(old.blocks) != 32 {
			t.Fatalf("%s: %d blocks after %d, want 32", where, len(tab.blocks), len(old.blocks))
		}
		for i, b := range tab.blocks {
			if shared := &b.slots[0] == &old.blocks[i].slots[0]; shared != (i != edit/32) {
				t.Errorf("%s: block %d shares its slots %v", where, i, shared)
			}
			if b.base != jp.Tiers[i].Bounds.Lo || b.first != uint32(32*i+1) {
				t.Errorf("%s: block %d at base %d, slot %d; tier at %v", where, i, b.base, b.first, jp.Tiers[i].Bounds)
			}
			if b.base != old.blocks[i].base != (moved && i > 0) {
				t.Errorf("%s: block %d moved from base %d to %d", where, i, old.blocks[i].base, b.base)
			}
		}
		if &tab.index[0] != &old.index[0] || &tab.ids[0] != &old.ids[0] || &tab.blockOf[0] != &old.blockOf[0] {
			t.Errorf("%s: index, ids or slot→block map laid out anew", where)
		}
		for _, in := range tableProbes(jp) {
			p := in
			if want := jp.Transforms[in.Tenant].Apply(in.Rank); !e.Process(&p) || p.Rank != want {
				t.Fatalf("%s: tenant %d rank %d rewrites to %d, Apply gives %d", where, in.Tenant, in.Rank, p.Rank, want)
			}
		}
		prev = jp
	}
	step("bounds update in tier 5", 5*32+7, func(nt *Tenant) { nt.Bounds.Hi += 9 }, false)
	step("width change in tier 0", 3, func(nt *Tenant) { nt.Levels *= 2 }, true)
}
