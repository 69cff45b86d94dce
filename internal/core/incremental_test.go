package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// randomChurnState is one evolving (tenants, spec) pair driven through a
// seeded mutation sequence by the differential test.
type randomChurnState struct {
	rng     *rand.Rand
	tenants []*Tenant
	spec    *policy.Spec
	nextID  pkt.TenantID
}

// rebuildSpec assigns the current tenants, in slice order, to a fresh
// random tier/level/weight structure.
func (st *randomChurnState) rebuildSpec(t *testing.T) {
	var b strings.Builder
	for i, tn := range st.tenants {
		if i > 0 {
			switch st.rng.Intn(4) {
			case 0:
				b.WriteString(" >> ")
			case 1:
				b.WriteString(" > ")
			default:
				b.WriteString(" + ")
			}
		}
		b.WriteString(tn.Name)
		if w := st.rng.Intn(4); w > 1 {
			fmt.Fprintf(&b, "*%d", w)
		}
	}
	spec, err := policy.Parse(b.String())
	if err != nil {
		t.Fatalf("generated unparsable spec %q: %v", b.String(), err)
	}
	st.spec = spec
}

func (st *randomChurnState) addTenant(t *testing.T) {
	id := st.nextID
	st.nextID++
	st.tenants = append(st.tenants, &Tenant{
		ID:     id,
		Name:   fmt.Sprintf("t%d", id),
		Bounds: rank.Bounds{Lo: 0, Hi: 100 + int64(st.rng.Intn(10_000))},
		Levels: int64(1 << (2 + st.rng.Intn(7))),
	})
	st.rebuildSpec(t)
}

// mutate applies one random churn step. Most steps are the single-tenant
// edits the memoized fast path is built for; the rest change structure.
func (st *randomChurnState) mutate(t *testing.T) {
	switch op := st.rng.Intn(10); {
	case op < 5: // bounds nudge (the common churn op)
		i := st.rng.Intn(len(st.tenants))
		nt := *st.tenants[i]
		nt.Bounds.Hi += int64(1 + st.rng.Intn(64))
		st.tenants[i] = &nt
	case op < 6: // quantization change
		i := st.rng.Intn(len(st.tenants))
		nt := *st.tenants[i]
		nt.Levels = int64(1 << (2 + st.rng.Intn(8)))
		st.tenants[i] = &nt
	case op < 8: // structural: same tenants, new tiers/levels/weights
		st.rebuildSpec(t)
	case op < 9: // membership: join
		st.addTenant(t)
	default: // membership: leave (keep at least two)
		if len(st.tenants) <= 2 {
			st.addTenant(t)
			return
		}
		i := st.rng.Intn(len(st.tenants))
		st.tenants = append(st.tenants[:i], st.tenants[i+1:]...)
		st.rebuildSpec(t)
	}
}

// policiesEqual compares every synthesized field (Spec identity aside —
// both paths store the given pointer).
func policiesEqual(a, b *JointPolicy) bool {
	return a.Spec == b.Spec &&
		reflect.DeepEqual(a.Transforms, b.Transforms) &&
		reflect.DeepEqual(a.ByName, b.ByName) &&
		reflect.DeepEqual(a.Tiers, b.Tiers) &&
		a.Output == b.Output
}

// TestResynthesizeDifferential is the incremental synthesizer's
// correctness proof: over hundreds of seeded churn sequences — bounds
// nudges, level changes, weight edits, tier restructurings, tenant
// joins/leaves — every Resynthesize result is identical to a fresh full
// Synthesize of the same inputs, including the serialized bytes.
func TestResynthesizeDifferential(t *testing.T) {
	const sequences = 220
	const steps = 12
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
		for s := 0; s < steps; s++ {
			st.mutate(t)
			inc, incErr := rs.Resynthesize(st.tenants, st.spec)
			full, fullErr := Synthesize(st.tenants, st.spec, opts)
			if (incErr == nil) != (fullErr == nil) {
				t.Fatalf("seq %d step %d: error divergence: incremental %v, full %v (spec %s)",
					seq, s, incErr, fullErr, st.spec)
			}
			if incErr != nil {
				if incErr.Error() != fullErr.Error() {
					t.Fatalf("seq %d step %d: different errors: %q vs %q", seq, s, incErr, fullErr)
				}
				continue
			}
			if !policiesEqual(inc, full) {
				t.Fatalf("seq %d step %d: policies diverge for spec %s\nincremental:\n%s\nfull:\n%s",
					seq, s, st.spec, inc.Describe(), full.Describe())
			}
			if inc.Describe() != full.Describe() {
				t.Fatalf("seq %d step %d: serialized output differs", seq, s)
			}
		}
		if stats := rs.Stats(); seq == 0 && stats.TierHits == 0 {
			t.Errorf("differential churn never hit the tier cache: %+v", stats)
		}
	}
}

// TestResynthesizeFallbacks drives the inputs the fast path must refuse
// and checks each produces the canonical full-synthesis behavior.
func TestResynthesizeFallbacks(t *testing.T) {
	mk := func() []*Tenant {
		return []*Tenant{
			{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
			{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
		}
	}
	spec, err := policy.Parse("a >> b")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("nil spec", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		_, err := rs.Resynthesize(mk(), nil)
		if err == nil {
			t.Fatal("nil spec accepted")
		}
		if rs.Stats().Full != 1 {
			t.Errorf("expected full fallback, got %+v", rs.Stats())
		}
	})
	t.Run("invalid options", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{PreferenceBias: 2})
		_, err := rs.Resynthesize(mk(), spec)
		if err == nil {
			t.Fatal("invalid PreferenceBias accepted")
		}
	})
	t.Run("out-of-order tenants", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		ts := mk()
		ts[0], ts[1] = ts[1], ts[0] // not in spec order: fast path bails
		jp, err := rs.Resynthesize(ts, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Synthesize(ts, spec, SynthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !policiesEqual(jp, want) {
			t.Error("fallback result diverges from Synthesize")
		}
		if rs.Stats().Full != 1 {
			t.Errorf("expected full fallback, got %+v", rs.Stats())
		}
	})
	t.Run("duplicate names", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		ts := mk()
		ts[1] = &Tenant{ID: 2, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 1}}
		_, incErr := rs.Resynthesize(ts, spec)
		_, fullErr := Synthesize(ts, spec, SynthOptions{})
		if incErr == nil || fullErr == nil || incErr.Error() != fullErr.Error() {
			t.Errorf("duplicate-name errors differ: %v vs %v", incErr, fullErr)
		}
	})
	t.Run("duplicate ids", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		ts := mk()
		ts[1] = &Tenant{ID: 1, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 1}}
		_, incErr := rs.Resynthesize(ts, spec)
		_, fullErr := Synthesize(ts, spec, SynthOptions{})
		if incErr == nil || fullErr == nil || incErr.Error() != fullErr.Error() {
			t.Errorf("duplicate-id errors differ: %v vs %v", incErr, fullErr)
		}
	})
	t.Run("unregistered spec tenant", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		_, incErr := rs.Resynthesize(mk()[:1], spec)
		_, fullErr := Synthesize(mk()[:1], spec, SynthOptions{})
		if incErr == nil || fullErr == nil || incErr.Error() != fullErr.Error() {
			t.Errorf("missing-tenant errors differ: %v vs %v", incErr, fullErr)
		}
	})
	t.Run("extra registered tenant", func(t *testing.T) {
		rs := NewResynthesizer(SynthOptions{})
		ts := append(mk(), &Tenant{ID: 3, Name: "c", Bounds: rank.Bounds{Lo: 0, Hi: 1}})
		_, incErr := rs.Resynthesize(ts, spec)
		_, fullErr := Synthesize(ts, spec, SynthOptions{})
		// Full synthesis tolerates registered-but-unreferenced tenants; the
		// fast path routes through it, so behavior matches either way.
		if (incErr == nil) != (fullErr == nil) {
			t.Errorf("extra-tenant divergence: %v vs %v", incErr, fullErr)
		}
	})
}

// TestResynthesizeCacheBehavior checks hit/miss accounting: an unchanged
// input is all hits, a one-tenant edit misses exactly one tier.
func TestResynthesizeCacheBehavior(t *testing.T) {
	tenants := []*Tenant{
		{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
		{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
		{ID: 3, Name: "c", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
	}
	spec, err := policy.Parse("a >> b >> c")
	if err != nil {
		t.Fatal(err)
	}
	rs := NewResynthesizer(SynthOptions{})
	if _, err := rs.Resynthesize(tenants, spec); err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.TierMisses != 3 || s.TierHits != 0 {
		t.Fatalf("cold run: %+v, want 3 misses", s)
	}
	if _, err := rs.Resynthesize(tenants, spec); err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.TierMisses != 3 || s.TierHits != 3 {
		t.Fatalf("warm run: %+v, want 3 hits", s)
	}
	nt := *tenants[1]
	nt.Bounds.Hi = 200
	tenants[1] = &nt
	if _, err := rs.Resynthesize(tenants, spec); err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.TierMisses != 4 || s.TierHits != 5 {
		t.Fatalf("single-tenant edit: %+v, want exactly one new miss", s)
	}
}

// TestResynthesizeCacheHoldsLiveGeneration: over the differential test's
// churn sequences, the cache never holds more tiers than the generation the
// last call assembled, and a fallback to full synthesis empties it.
func TestResynthesizeCacheHoldsLiveGeneration(t *testing.T) {
	for seq := 0; seq < 60; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		st := &randomChurnState{rng: rng, nextID: 1}
		for i := 0; i < 2+rng.Intn(10); i++ {
			st.addTenant(t)
		}
		rs := NewResynthesizer(SynthOptions{})
		for s := 0; s < 12; s++ {
			st.mutate(t)
			rs.Resynthesize(st.tenants, st.spec)
			if len(rs.cache) > len(st.spec.Tiers) {
				t.Fatalf("seq %d step %d: %d cached tiers for a %d-tier spec", seq, s, len(rs.cache), len(st.spec.Tiers))
			}
		}
	}
	tenants := []*Tenant{
		{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
		{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 100}},
	}
	rs := NewResynthesizer(SynthOptions{})
	if _, err := rs.Resynthesize(tenants, policy.MustParse("a >> b")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Resynthesize(tenants, policy.MustParse("b >> a")); err != nil {
		t.Fatal(err)
	}
	if s := rs.Stats(); s.Full != 1 || len(rs.cache) != 0 || rs.last != nil {
		t.Fatalf("after a fallback: %+v, %d cached tiers, last table kept %v", s, len(rs.cache), rs.last != nil)
	}
}

// TestResynthesizeReusesOnlyExactSequences: a generation shares the last
// one's ID→slot index when the IDs match position by position, and its
// ByName map only when the names do too. Renames keep the IDs, so they
// must get a fresh ByName and still equal a full synthesis.
func TestResynthesizeReusesOnlyExactSequences(t *testing.T) {
	tenant := func(id pkt.TenantID, name string) *Tenant {
		return &Tenant{ID: id, Name: name, Bounds: rank.Bounds{Lo: 0, Hi: 100}}
	}
	steps := []struct {
		tenants          []*Tenant
		spec             string
		sameIndex, names bool
	}{
		{[]*Tenant{tenant(1, "a"), tenant(2, "b")}, "a >> b", false, false},
		{[]*Tenant{tenant(1, "a"), tenant(2, "b")}, "a >> b", true, true},
		{[]*Tenant{tenant(1, "a"), tenant(2, "c")}, "a >> c", true, false},
		{[]*Tenant{tenant(1, "c"), tenant(2, "a")}, "c >> a", true, false},
		{[]*Tenant{tenant(1, "c"), tenant(2, "a")}, "c + a", true, false},
		{[]*Tenant{tenant(2, "c"), tenant(1, "a")}, "c + a", false, false},
	}
	rs := NewResynthesizer(SynthOptions{})
	var last *JointPolicy
	for i, st := range steps {
		spec := policy.MustParse(st.spec)
		got, err := rs.Resynthesize(st.tenants, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Synthesize(st.tenants, spec, SynthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !policiesEqual(got, want) {
			t.Fatalf("step %d (%s): ByName %v, want %v", i, st.spec, got.ByName, want.ByName)
		}
		if last != nil {
			if shared := &got.tab.index[0] == &last.tab.index[0]; shared != st.sameIndex {
				t.Errorf("step %d (%s): index shared %v, want %v", i, st.spec, shared, st.sameIndex)
			}
			if reused := reflect.ValueOf(got.ByName).UnsafePointer() == reflect.ValueOf(last.ByName).UnsafePointer(); reused != st.names {
				t.Errorf("step %d (%s): ByName reused %v, want %v", i, st.spec, reused, st.names)
			}
		}
		last = got
	}
}

// benchPolicy builds an n-tenant policy across 32-wide shared tiers.
func benchPolicy(b testing.TB, n int) ([]*Tenant, *policy.Spec) {
	tenants := make([]*Tenant, n)
	var sb strings.Builder
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		tenants[i] = &Tenant{
			ID:     pkt.TenantID(i + 1),
			Name:   name,
			Bounds: rank.Bounds{Lo: 0, Hi: 65535},
			Levels: 256,
		}
		if i > 0 {
			if i%32 == 0 {
				sb.WriteString(" >> ")
			} else {
				sb.WriteString(" + ")
			}
		}
		sb.WriteString(name)
	}
	spec, err := policy.Parse(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	return tenants, spec
}

// BenchmarkIncrementalResynth measures a single-tenant bounds update at
// 1024 tenants through the memoizing path (one tier recompiles, 31 hit).
func BenchmarkIncrementalResynth(b *testing.B) {
	tenants, spec := benchPolicy(b, 1024)
	rs := NewResynthesizer(SynthOptions{})
	if _, err := rs.Resynthesize(tenants, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt := *tenants[7]
		nt.Bounds.Hi = 65536 + int64(i%63)
		tenants[7] = &nt
		if _, err := rs.Resynthesize(tenants, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullResynth is the same update through a full Synthesize.
func BenchmarkFullResynth(b *testing.B) {
	tenants, spec := benchPolicy(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nt := *tenants[7]
		nt.Bounds.Hi = 65536 + int64(i%63)
		tenants[7] = &nt
		if _, err := Synthesize(tenants, spec, SynthOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
