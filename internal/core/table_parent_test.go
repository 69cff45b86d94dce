package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// parentTable is the rewrite table as it was before tier blocks, kept
// verbatim (renamed) with its slot, its compile step and its kernel as the
// reference TestTableMatchesParent runs the current one against: one dense
// slice of absolute slots, slot k+1 the k-th tenant of the spec, behind the
// ID→slot index.
type parentTable struct {
	policy *JointPolicy
	min    uint
	index  []uint32
	slots  []parentSlot
	ids    []pkt.TenantID
}

type parentSlot struct {
	lo, hi int64 // original clamp bounds (for the Clamped counter)
	span   int64 // hi-lo: upper clamp of d
	m      int64 // Levels-1: quantization numerator
	w      int64 // weight, defaulted to 1
	stride int64
	base   int64 // Offset+Phase: the rank of level 0
	floatQ bool  // quantize via the monotone float fallback
}

// newParentTable lays out jp the way the dense table's assembly did: its
// tenants in spec order, each slot its absolute transform compiled.
func newParentTable(jp *JointPolicy) *parentTable {
	t := &parentTable{policy: jp, slots: make([]parentSlot, 1), ids: make([]pkt.TenantID, 1)}
	for _, tier := range jp.Tiers {
		for _, name := range tier.Tenants {
			id := jp.ByName[name]
			t.slots = append(t.slots, parentCompile(jp.Transforms[id]))
			t.ids = append(t.ids, id)
		}
	}
	t.min, t.index = parentIndexSlots(t.ids)
	return t
}

func parentCompile(tr Transform) parentSlot {
	s := parentSlot{lo: tr.Lo, hi: tr.Hi, span: tr.Hi - tr.Lo, m: tr.Levels - 1,
		w: tr.weight(), stride: tr.Stride, base: tr.Offset + tr.Phase}
	if s.span <= 0 || s.m <= 0 {
		lvl := int64(0)
		if s.m < 0 {
			lvl = s.m
		}
		s.base += (lvl/s.w)*s.stride + lvl%s.w
		s.span, s.m = 1, 0
	}
	s.floatQ = s.m > (1<<62)/(s.span+1)
	return s
}

func parentIndexSlots(ids []pkt.TenantID) (uint, []uint32) {
	if len(ids) < 2 {
		return 0, nil
	}
	lo, hi := slices.Min(ids[1:]), slices.Max(ids[1:])
	index := make([]uint32, int(hi-lo)+1)
	for slot := 1; slot < len(ids); slot++ {
		index[ids[slot]-lo] = uint32(slot)
	}
	return uint(lo), index
}

func (t *parentTable) slot(id pkt.TenantID) uint32 {
	if i := uint(id) - t.min; i < uint(len(t.index)) {
		return t.index[i]
	}
	return 0
}

func (t *parentTable) rewrite(ps []*pkt.Packet, action UnknownTenantAction, stage *preprocStage) int {
	for i, p := range ps {
		slot := t.slot(p.Tenant)
		if slot == 0 {
			if stage != nil {
				stage.stats.Unknown++
				if stage.tenants != nil {
					stage.tenants[0].n++
				}
			}
			switch action {
			case UnknownPass:
			case UnknownDrop:
				return i
			default: // UnknownWorst: one past the joint policy's worst rank
				p.Rank = t.policy.Output.Hi + 1
			}
			continue
		}
		s := &t.slots[slot]
		in := p.Rank
		d := in - s.lo
		clamped := in < s.lo || in > s.hi
		if clamped {
			d = 0
			if in > s.hi {
				d = s.span
			}
		}
		var lvl int64
		if s.floatQ {
			lvl = int64(float64(d) / float64(s.span) * float64(s.m))
			if lvl > s.m {
				lvl = s.m
			}
		} else {
			lvl = d * s.m / s.span
		}
		out := s.base + (lvl/s.w)*s.stride + lvl%s.w
		p.Rank = out
		if stage == nil {
			continue
		}
		stage.stats.Processed++
		if clamped {
			stage.stats.Clamped++
		}
		if stage.tenants != nil {
			st := &stage.tenants[slot]
			st.n++
			if clamped {
				st.clamped++
			}
			shift := out - in
			if shift < 0 {
				shift = -shift
			}
			st.shift[obs.BucketIndex(shift)]++
			st.shiftSum += shift
		}
	}
	return len(ps)
}

// parentLockstep drives one published generation after another through an
// epoch store and a pre-processor pinned to it, and the same generations
// through parentTable with a stage of its own.
type parentLockstep struct {
	action  UnknownTenantAction
	metrics bool
	store   *EpochStore
	pp      *Preprocessor
	stage   preprocStage
}

func newParentLockstep(action UnknownTenantAction, metrics bool) *parentLockstep {
	return &parentLockstep{action: action, metrics: metrics, store: NewEpochStore(action)}
}

// check publishes jp, then rewrites the probes one at a time through the
// epoch, the pinned pre-processor and the parent table, and once more as
// one batch through ApplyBatch and the parent's batch loop. Ranks, keep
// decisions, the PreprocStats and every slot's staged counts must agree.
func (l *parentLockstep) check(t *testing.T, where string, jp *JointPolicy, unknown ...pkt.TenantID) {
	t.Helper()
	e := l.store.Publish(jp, nil)
	if l.pp == nil {
		l.pp = e.Preprocessor()
		if l.metrics {
			l.pp.EnableMetrics(obs.NewRegistry(), nil)
		}
	} else {
		l.pp.Pin(e)
	}
	ref := newParentTable(jp)
	if !slices.Equal(e.tab.ids, ref.ids) {
		t.Fatalf("%s: slot IDs %v, parent %v", where, e.tab.ids, ref.ids)
	}
	// Pinning flushed the staged counts, as re-binding did at the parent.
	l.stage.tenants = nil
	if l.metrics {
		l.stage.tenants = make([]slotStage, len(ref.ids))
	}
	probes := tableProbes(jp, unknown...)
	for _, in := range probes {
		want, viaEpoch, viaPP := in, in, in
		wantKeep := ref.rewrite([]*pkt.Packet{&want}, l.action, &l.stage) == 1
		if keep := e.Process(&viaEpoch); keep != wantKeep || viaEpoch.Rank != want.Rank {
			t.Fatalf("%s: epoch rewrites tenant %d rank %d to (%d, keep %v), parent to (%d, keep %v)",
				where, in.Tenant, in.Rank, viaEpoch.Rank, keep, want.Rank, wantKeep)
		}
		if keep := l.pp.Process(&viaPP); keep != wantKeep || viaPP.Rank != want.Rank {
			t.Fatalf("%s: pre-processor rewrites tenant %d rank %d to (%d, keep %v), parent to (%d, keep %v)",
				where, in.Tenant, in.Rank, viaPP.Rank, keep, want.Rank, wantKeep)
		}
	}
	got, want := make([]pkt.Packet, len(probes)), make([]pkt.Packet, len(probes))
	copy(got, probes)
	copy(want, probes)
	gotPs, wantPs := make([]*pkt.Packet, len(probes)), make([]*pkt.Packet, len(probes))
	for i := range probes {
		gotPs[i], wantPs[i] = &got[i], &want[i]
	}
	kept := l.pp.ApplyBatch(gotPs)
	wantKept := 0
	for i := 0; i < len(wantPs); {
		n := ref.rewrite(wantPs[i:], l.action, &l.stage)
		wantKept += n
		i += n + 1
	}
	if kept != wantKept {
		t.Fatalf("%s: ApplyBatch kept %d of %d, parent %d", where, kept, len(probes), wantKept)
	}
	for i := range probes {
		if got[i] != want[i] {
			t.Fatalf("%s: ApplyBatch packet %d is %+v, parent %+v", where, i, got[i], want[i])
		}
	}
	if l.pp.Stats() != l.stage.stats {
		t.Fatalf("%s: stats %+v, parent %+v", where, l.pp.Stats(), l.stage.stats)
	}
	if !slices.Equal(l.pp.stage.tenants, l.stage.tenants) {
		t.Fatalf("%s: staged per-slot counts differ from the parent's", where)
	}
}

// TestTableMatchesParent runs the rewrite table in lockstep with a
// verbatim copy of the dense one it replaced, over
// TestSynthesizedTableMatchesMap's seeded churn (incremental and full
// generations) and over sparse IDs {1, 40000, 65535}, under every
// UnknownTenantAction, with and without metrics.
func TestTableMatchesParent(t *testing.T) {
	actions := []UnknownTenantAction{UnknownWorst, UnknownPass, UnknownDrop}
	t.Run("churn", func(t *testing.T) {
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
			action, metrics := actions[seq%3], seq/3%2 == 1
			rs := NewResynthesizer(opts)
			inc, full := newParentLockstep(action, metrics), newParentLockstep(action, metrics)
			for s := 0; s < steps; s++ {
				st.mutate(t)
				unknown := []pkt.TenantID{0, st.nextID, pkt.NoTenant}
				jp, err := rs.Resynthesize(st.tenants, st.spec)
				if err != nil {
					continue
				}
				inc.check(t, fmt.Sprintf("seq %d step %d incremental", seq, s), jp, unknown...)
				if jp, err = Synthesize(st.tenants, st.spec, opts); err != nil {
					t.Fatalf("seq %d step %d: full synthesis fails where incremental did not: %v", seq, s, err)
				}
				full.check(t, fmt.Sprintf("seq %d step %d full", seq, s), jp, unknown...)
			}
		}
	})
	t.Run("regimes", func(t *testing.T) {
		// The float fallback, exact quantization close to its 2^62
		// limit, degenerate quantizers and weights, across tiers.
		tenants := []*Tenant{
			{ID: 1, Name: "float", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 40}, Levels: 1 << 30},
			{ID: 2, Name: "exact", Bounds: rank.Bounds{Lo: -1 << 30, Hi: 1 << 31}, Levels: 1 << 30},
			{ID: 3, Name: "wide", Bounds: rank.Bounds{Lo: math.MinInt64 / 4, Hi: math.MaxInt64 / 4}, Levels: 1 << 20},
			{ID: 4, Name: "point", Bounds: rank.Bounds{Lo: 5, Hi: 5}},
			{ID: 5, Name: "one", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 1},
			{ID: 6, Name: "narrow", Bounds: rank.Bounds{Lo: -7, Hi: 9}},
		}
		specs := []string{"float + exact*3 >> wide > point + one*2 >> narrow", "float > exact >> wide*2 + point + one*3 + narrow"}
		for _, action := range actions {
			for _, metrics := range []bool{false, true} {
				l := newParentLockstep(action, metrics)
				for _, spec := range specs {
					jp, err := Synthesize(tenants, policy.MustParse(spec), SynthOptions{})
					if err != nil {
						t.Fatal(err)
					}
					l.check(t, fmt.Sprintf("%v metrics %v (%s)", action, metrics, spec), jp, 0, 7)
				}
			}
		}
	})
	t.Run("sparse", func(t *testing.T) {
		tenants := []*Tenant{
			{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 64},
			{ID: 40000, Name: "b", Bounds: rank.Bounds{Lo: -50, Hi: 50}, Levels: 8},
			{ID: 65535, Name: "c", Bounds: rank.Bounds{Lo: 7, Hi: 7}},
		}
		specs := []string{"a >> b + c", "a + b*2 >> c", "a > b >> c", "a + b + c", "a >> b >> c"}
		for _, action := range actions {
			for _, metrics := range []bool{false, true} {
				rs := NewResynthesizer(SynthOptions{})
				l := newParentLockstep(action, metrics)
				local := append([]*Tenant(nil), tenants...)
				for step := 0; step < 3*len(specs); step++ {
					if step%3 == 2 {
						nt := *local[step%len(local)]
						nt.Bounds.Hi += int64(step)
						local[step%len(local)] = &nt
					}
					jp, err := rs.Resynthesize(local, policy.MustParse(specs[step/3]))
					if err != nil {
						t.Fatal(err)
					}
					l.check(t, fmt.Sprintf("%v metrics %v step %d (%s)", action, metrics, step, specs[step/3]),
						jp, 0, 2, 39_999, 40_001, 65_534)
				}
			}
		}
	})
}
