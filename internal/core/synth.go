package core

import (
	"fmt"
	"strings"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// SynthOptions tune the synthesizer.
type SynthOptions struct {
	// DefaultLevels is the quantization granularity used for tenants that
	// do not set Tenant.Levels. Zero means 64. Tenants whose declared
	// rank span is narrower than this use span+1 levels (finer makes no
	// difference).
	DefaultLevels int64
	// PreferenceBias is the fraction of a preference level's output band
	// that the next (less preferred) level in the same tier is shifted
	// by. 0 < bias ≤ 1. At 1.0, ">" behaves like ">>" (disjoint bands);
	// small values approach pure sharing. Zero means 0.5: the preferred
	// level's lower half always beats the dominated level, its upper half
	// competes — "priority applied in a best-effort manner" (§3.1).
	PreferenceBias float64
	// Base is the smallest output rank the joint policy emits. The
	// paper's Figure 3 uses 1; the default is 0.
	Base int64
}

func (o SynthOptions) defaults() SynthOptions {
	if o.DefaultLevels <= 0 {
		o.DefaultLevels = 64
	}
	if o.PreferenceBias == 0 {
		o.PreferenceBias = 0.5
	}
	return o
}

func (o SynthOptions) validate() error {
	if o.PreferenceBias < 0 || o.PreferenceBias > 1 {
		return fmt.Errorf("core: PreferenceBias %v outside (0,1]", o.PreferenceBias)
	}
	if o.DefaultLevels < 0 {
		return fmt.Errorf("core: negative DefaultLevels %d", o.DefaultLevels)
	}
	return nil
}

// TierPlan records the output rank band of one strict-priority tier, for
// deployment (§3.4: strict tiers map to dedicated queues).
type TierPlan struct {
	// Bounds is the closed output rank interval the tier occupies.
	Bounds rank.Bounds
	// Tenants are the tenant names in this tier, preference order.
	Tenants []string
}

// JointPolicy is the synthesizer's output: the joint scheduling function,
// expressed as one rank transformation per tenant (§3.2), plus the layout
// information deployment needs. A synthesized policy also carries its
// compiled rewrite table, which the next re-synthesis builds on, so it is
// read-only once synthesized; a decoded or hand-built policy, or a copy of
// the struct, is compiled from Transforms where it is deployed.
type JointPolicy struct {
	// Spec is the operator policy the joint function realizes.
	Spec *policy.Spec
	// Transforms maps each tenant label to its transformation function.
	Transforms map[pkt.TenantID]Transform
	// ByName maps tenant names to labels, for inspection tools.
	ByName map[string]pkt.TenantID
	// Tiers records the rank band of each strict tier, highest first.
	Tiers []TierPlan
	// Output is the closed interval of all output ranks.
	Output rank.Bounds
	// Version is set by the runtime controller on re-synthesis.
	Version uint64

	// tab is the rewrite table the synthesizer laid out with the policy
	// (nil for a policy it did not lay out; see table).
	tab *flatTable
}

// TransformOf returns the transformation for a tenant name.
func (jp *JointPolicy) TransformOf(name string) (Transform, bool) {
	id, ok := jp.ByName[name]
	if !ok {
		return Transform{}, false
	}
	tr, ok := jp.Transforms[id]
	return tr, ok
}

// Describe renders a human-readable summary of the joint policy, one
// tenant per line, in spec order.
func (jp *JointPolicy) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy: %s\noutput ranks: %v\n", jp.Spec, jp.Output)
	for ti, tier := range jp.Tiers {
		fmt.Fprintf(&b, "tier %d: %v\n", ti, tier.Bounds)
		for _, name := range tier.Tenants {
			tr, _ := jp.TransformOf(name)
			fmt.Fprintf(&b, "  %-12s %s\n", name, tr)
		}
	}
	return b.String()
}

// Synthesize compiles the tenants' scheduling policies and the operator's
// composition policy into a joint scheduling function (§3.2).
//
// The construction follows the paper's two primitives:
//
//   - Tenants in the same sharing level ("+") are normalized to a common
//     number of levels and interleaved: tenant i of k gets output slots
//     offset + level*k + i, so a PIFO round-robins among them at equal
//     normalized priority (this reproduces Figure 3 exactly).
//   - Preference levels (">") within a tier are shifted by
//     PreferenceBias × the preceding level's band, overlapping bands so the
//     preferred tenants usually, but not always, win.
//   - Tiers (">>") are shifted past the entire band of every higher tier,
//     so no lower-tier packet can ever beat a higher-tier one: isolation by
//     worst-case analysis ("we can shift all the priorities from T3's
//     scheduling policy such that, even in the worst case, it does not
//     impact the performance of the other tenants", §2).
func Synthesize(tenants []*Tenant, spec *policy.Spec, opts SynthOptions) (*JointPolicy, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.defaults()
	if spec == nil {
		return nil, fmt.Errorf("core: nil operator spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	byName := make(map[string]*Tenant, len(tenants))
	for _, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("core: tenant with label %d has empty name", t.ID)
		}
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("core: duplicate tenant name %q", t.Name)
		}
		byName[t.Name] = t
	}
	ids := make(map[pkt.TenantID]string, len(tenants))
	for _, t := range tenants {
		if prev, dup := ids[t.ID]; dup {
			return nil, fmt.Errorf("core: tenants %q and %q share label %d", prev, t.Name, t.ID)
		}
		ids[t.ID] = t.Name
	}
	for _, name := range spec.Tenants() {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("core: spec references undefined tenant %q", name)
		}
	}

	names := make(map[string]pkt.TenantID)
	tiers := make([]*tierSynth, 0, len(spec.Tiers))
	var scratch []*Tenant
	for _, tier := range spec.Tiers {
		scratch = scratch[:0]
		for _, lvl := range tier.Levels {
			for _, name := range lvl.Tenants {
				scratch = append(scratch, byName[name])
				names[name] = byName[name].ID
			}
		}
		ts, err := synthesizeTier(tier, scratch, opts)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, ts)
	}
	return assemble(spec, tiers, opts.Base, names, nil, false), nil
}

// assemble lays a generation out from its strict tiers, in spec order and
// contiguously from base (strict isolation: each tier starts past the one
// above it). Landing a tier on its base shifts its transforms' Offset, and
// its compiled slots become one block of the rewrite table at that base,
// shared as they are: slot k+1 holds the k-th tenant of the spec. last is
// the previous generation's table (nil for none). The new table shares its
// ID→slot index when sameIDs says the tenant IDs are exactly last's in the
// same order, and its slot→block map when the tiers hold as many tenants as
// last's, and lays them out anew otherwise.
func assemble(spec *policy.Spec, tiers []*tierSynth, base int64, byName map[string]pkt.TenantID, last *flatTable, sameIDs bool) *JointPolicy {
	n := 0
	for _, ts := range tiers {
		n += len(ts.ids)
	}
	jp := &JointPolicy{
		Spec:       spec,
		Transforms: make(map[pkt.TenantID]Transform, n),
		ByName:     byName,
		Tiers:      make([]TierPlan, 0, len(tiers)),
		Output:     rank.Bounds{Lo: base},
	}
	tab := &flatTable{policy: jp, blocks: make([]flatBlock, len(tiers))}
	samePartition := last != nil && len(last.blocks) == len(tiers) && len(last.ids) == n+1
	first := uint32(1)
	for i, ts := range tiers {
		for j, id := range ts.ids {
			tr := ts.rel[j]
			tr.Offset += base
			jp.Transforms[id] = tr
		}
		tab.blocks[i] = flatBlock{base: base, first: first, slots: ts.flat}
		samePartition = samePartition && last.blocks[i].first == first
		first += uint32(len(ts.flat))
		jp.Tiers = append(jp.Tiers, TierPlan{
			Bounds:  rank.Bounds{Lo: base, Hi: base + ts.width - 1},
			Tenants: ts.names,
		})
		base += ts.width
	}
	jp.Output.Hi = base - 1
	if samePartition {
		tab.blockOf = last.blockOf
	} else {
		tab.blockOf = make([]uint32, n+1)
		for i, blk := range tab.blocks {
			for k := range blk.slots {
				tab.blockOf[blk.first+uint32(k)] = uint32(i)
			}
		}
	}
	if sameIDs {
		tab.ids, tab.min, tab.index = last.ids, last.min, last.index
	} else {
		tab.ids = make([]pkt.TenantID, 1, n+1)
		for _, ts := range tiers {
			tab.ids = append(tab.ids, ts.ids...)
		}
		tab.min, tab.index = indexSlots(tab.ids)
	}
	jp.tab = tab
	return jp
}

// tierSynth is one strict tier synthesized with its base at rank 0:
// per-tenant transforms whose Offset is still tier-relative, the same
// transforms compiled into rewrite-table slots, the tier's total band
// width, and the tenant names/IDs in preference order. Only
// Transform.Offset (and with it a slot's base) depends on where the tier
// lands in the output range, so shifting both by the tier's absolute base
// reproduces exactly what an in-place synthesis and compile compute —
// which is what makes per-tier results cacheable across re-syntheses (see
// incremental.go). A tierSynth is immutable once made: the rewrite tables
// of every generation that holds the tier share its flat slots.
type tierSynth struct {
	key   tierKey // under which the Resynthesizer caches it
	width int64
	names []string
	ids   []pkt.TenantID
	rel   []Transform
	flat  []flatTransform
}

// synthesizeTier compiles one tier at base 0. ts holds the tier's tenants
// in declaration order (levels concatenated), resolved by the caller.
func synthesizeTier(tier policy.Tier, ts []*Tenant, opts SynthOptions) (*tierSynth, error) {
	out := &tierSynth{
		names: make([]string, 0, len(ts)),
		ids:   make([]pkt.TenantID, 0, len(ts)),
		rel:   make([]Transform, 0, len(ts)),
		flat:  make([]flatTransform, 0, len(ts)),
	}
	levelOffset := int64(0)
	tierEnd := int64(0) // exclusive
	k := 0
	for li, lvl := range tier.Levels {
		// The interleave cycle width is the level's total share
		// weight ("T1*2 + T2" → cycle of 3 slots, two owned by T1).
		W := lvl.TotalWeight()
		// All tenants of a sharing level use a common level count:
		// the maximum of their individual choices, so no tenant
		// loses resolution to a coarser neighbour.
		L := int64(1)
		for i := range lvl.Tenants {
			lt, err := tenantLevels(ts[k+i], opts.DefaultLevels)
			if err != nil {
				return nil, err
			}
			if lt > L {
				L = lt
			}
		}
		var width int64 // slots occupied by this sharing group
		phase := int64(0)
		for i, name := range lvl.Tenants {
			t := ts[k+i]
			b, err := t.EffectiveBounds()
			if err != nil {
				return nil, err
			}
			w := lvl.WeightOf(i)
			tr := Transform{
				Lo:     b.Lo,
				Hi:     b.Hi,
				Levels: L,
				Stride: W,
				Phase:  phase,
				Weight: w,
				Offset: levelOffset,
			}
			phase += w
			if end := tr.OutputBounds().Hi - levelOffset + 1; end > width {
				width = end
			}
			out.rel = append(out.rel, tr)
			out.flat = append(out.flat, compileTransform(tr))
			out.ids = append(out.ids, t.ID)
			out.names = append(out.names, name)
		}
		k += len(lvl.Tenants)
		if end := levelOffset + width; end > tierEnd {
			tierEnd = end
		}
		if li < len(tier.Levels)-1 {
			// Best-effort preference: the next level starts part-way
			// into this one's band.
			shift := int64(float64(width) * opts.PreferenceBias)
			if shift < 1 {
				shift = 1
			}
			levelOffset += shift
		}
	}
	out.width = tierEnd
	return out, nil
}

func tenantLevels(t *Tenant, def int64) (int64, error) {
	if t.Levels < 0 {
		return 0, fmt.Errorf("core: tenant %q has negative Levels", t.Name)
	}
	if t.Levels > 0 {
		return t.Levels, nil
	}
	b, err := t.EffectiveBounds()
	if err != nil {
		return 0, err
	}
	if s := b.Span() + 1; s < def {
		return s, nil
	}
	return def, nil
}

// tenantInputs is what a tenant gives its tier's synthesis besides its
// name and ID: its effective bounds and its resolved level count. It
// reports false where EffectiveBounds or tenantLevels fails.
func tenantInputs(t *Tenant, def int64) (rank.Bounds, int64, bool) {
	b, err := t.EffectiveBounds()
	if err != nil {
		return b, 0, false
	}
	lt, err := tenantLevels(t, def)
	return b, lt, err == nil
}
