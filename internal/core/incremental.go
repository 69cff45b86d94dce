package core

import (
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
)

// Resynthesizer produces the same joint policies as Synthesize while
// memoizing per-tier results, so that a single-tenant change recompiles
// only the tiers it touches. The unit of caching is one strict tier
// synthesized and compiled relative to base 0 (tierSynth): tiers are laid
// out contiguously and only Transform.Offset and a slot's base depend on
// where a tier lands, so a cached tier is re-shifted by the running base
// during assembly and the output is byte-identical to a full synthesis
// (proven by the differential test over seeded churn sequences), rewrite
// table included.
//
// The cache key is a content hash over everything one tier's synthesis
// consumes: the level structure, each tenant's share weight, and each
// tenant's name, ID, resolved level count, and effective bounds. Any
// change to a tier — a tenant's bounds drifting, a weight edit, a
// structural rearrangement — changes its key and forces that tier (and
// only that tier) to recompute; untouched tiers hit the cache. The cache
// holds exactly the tiers of the last generation assembled: each call
// rebuilds it from its hits and misses, so a dead tier never outlives the
// generation after it.
//
// Anything the fast path cannot prove valid (tenants out of spec order,
// structural anomalies a full synthesis would reject, invalid options)
// falls back to Synthesize wholesale, so error behavior is identical by
// construction.
//
// A Resynthesizer is not safe for concurrent use; the runtime controller
// owns one and serializes recompilations (the API server's mutex at
// control-plane rate).
type Resynthesizer struct {
	opts  SynthOptions // as given; defaults applied per call like Synthesize
	cache map[tierKey]*tierSynth

	// last is the table of the last generation assembled. The next
	// generation shares its ID→slot index when it has the same IDs in the
	// same order, and its ByName map when each tier names the same tenants
	// too — the common case of a bounds or weight edit — skipping the only
	// O(tenants) string-keyed pass left.
	last *flatTable

	// scratch buffers reused across calls.
	keys   []tierKey
	counts []int

	stats ResynthStats
}

// ResynthStats counts Resynthesizer activity.
type ResynthStats struct {
	// Calls counts Resynthesize invocations.
	Calls uint64
	// Full counts calls that fell back to a full Synthesize.
	Full uint64
	// TierHits and TierMisses count per-tier cache outcomes on the
	// incremental path.
	TierHits   uint64
	TierMisses uint64
}

// tierKey identifies a cached tier: a content hash plus the tier's tenant
// count as a cheap collision guard (a colliding entry with a different
// tenant count is treated as a miss).
type tierKey struct {
	hash uint64
	n    int
}

// NewResynthesizer returns a memoizing synthesizer with the given
// options. The options are fixed for the Resynthesizer's lifetime (they
// feed the cache keys implicitly).
func NewResynthesizer(opts SynthOptions) *Resynthesizer {
	return &Resynthesizer{opts: opts, cache: make(map[tierKey]*tierSynth)}
}

// Stats returns a snapshot of the cache counters.
func (rs *Resynthesizer) Stats() ResynthStats { return rs.stats }

// full delegates to Synthesize, which reproduces the canonical error (or
// result) for inputs the fast path would not certify. The generation it
// makes is not assembled from cached tiers, so the cache and the reuse
// state start over.
func (rs *Resynthesizer) full(tenants []*Tenant, spec *policy.Spec) (*JointPolicy, error) {
	rs.stats.Full++
	clear(rs.cache)
	rs.last = nil
	return Synthesize(tenants, spec, rs.opts)
}

// Resynthesize is Synthesize with per-tier memoization: identical
// results, identical errors. tenants must be the registered tenant set;
// the fast path additionally expects them in spec order (as the runtime
// controller builds them) and falls back to a full synthesis otherwise.
func (rs *Resynthesizer) Resynthesize(tenants []*Tenant, spec *policy.Spec) (*JointPolicy, error) {
	rs.stats.Calls++
	if err := rs.opts.validate(); err != nil {
		return rs.full(tenants, spec)
	}
	if spec == nil {
		return rs.full(tenants, spec)
	}
	opts := rs.opts.defaults()

	// Hashing walk: one pass over the spec computing each tier's content
	// key, verifying as it goes that the tenant slice is exactly the spec
	// order and that per-tier synthesis cannot fail. Any anomaly — and
	// any input a full synthesis would reject — bails out.
	if cap(rs.keys) < len(spec.Tiers) {
		rs.keys = make([]tierKey, len(spec.Tiers))
		rs.counts = make([]int, len(spec.Tiers))
	}
	keys := rs.keys[:len(spec.Tiers)]
	counts := rs.counts[:len(spec.Tiers)]
	// The same walk compares the tenants, position by position, with the
	// last generation's: its IDs in slot order and its tiers' names.
	var prev []TierPlan
	if rs.last != nil {
		prev = rs.last.policy.Tiers
	}
	sameIDs := rs.last != nil && len(rs.last.ids) == len(tenants)+1
	sameNames := rs.last != nil && len(prev) == len(spec.Tiers)
	k := 0
	for ti, tier := range spec.Tiers {
		if len(tier.Levels) == 0 {
			return rs.full(tenants, spec)
		}
		h := uint64(fnvOffset)
		nt := 0
		for _, lvl := range tier.Levels {
			if len(lvl.Tenants) == 0 {
				return rs.full(tenants, spec)
			}
			if lvl.Weights != nil && len(lvl.Weights) != len(lvl.Tenants) {
				return rs.full(tenants, spec)
			}
			h = fnvU64(h, uint64(len(lvl.Tenants)))
			for i, name := range lvl.Tenants {
				if name == "" || k >= len(tenants) || tenants[k].Name != name {
					return rs.full(tenants, spec)
				}
				if lvl.Weights != nil && lvl.Weights[i] < 1 {
					return rs.full(tenants, spec)
				}
				t := tenants[k]
				lt, err := tenantLevels(t, opts.DefaultLevels)
				if err != nil {
					return rs.full(tenants, spec)
				}
				b, err := t.EffectiveBounds()
				if err != nil {
					return rs.full(tenants, spec)
				}
				h = fnvStr(h, name)
				h = fnvU64(h, uint64(t.ID))
				h = fnvU64(h, uint64(b.Lo))
				h = fnvU64(h, uint64(b.Hi))
				h = fnvU64(h, uint64(lt))
				h = fnvU64(h, uint64(lvl.WeightOf(i)))
				sameIDs = sameIDs && rs.last.ids[k+1] == t.ID
				sameNames = sameNames && nt < len(prev[ti].Tenants) && prev[ti].Tenants[nt] == name
				k++
				nt++
			}
		}
		sameNames = sameNames && nt == len(prev[ti].Tenants)
		keys[ti] = tierKey{hash: h, n: nt}
		counts[ti] = nt
	}
	if k != len(tenants) {
		// Registered tenants the spec does not reference: canonical error
		// via the full path.
		return rs.full(tenants, spec)
	}

	// ByName: reuse the previous map when the (name, ID) sequence is
	// exactly the last one (its content would be rebuilt identically;
	// JointPolicy maps are read-only once published). Otherwise rebuild
	// with the duplicate checks a full synthesis performs.
	var byName map[string]pkt.TenantID
	if sameIDs && sameNames {
		byName = rs.last.policy.ByName
	} else {
		byName = make(map[string]pkt.TenantID, len(tenants))
		seenID := make(map[pkt.TenantID]bool, len(tenants))
		for _, t := range tenants {
			if _, dup := byName[t.Name]; dup {
				return rs.full(tenants, spec)
			}
			if seenID[t.ID] {
				return rs.full(tenants, spec)
			}
			byName[t.Name] = t.ID
			seenID[t.ID] = true
		}
	}

	// Each tier cached or freshly synthesized; the tiers used make up the
	// next cache.
	next := make(map[tierKey]*tierSynth, len(spec.Tiers))
	tiers := make([]*tierSynth, 0, len(spec.Tiers))
	k = 0
	for ti, tier := range spec.Tiers {
		ts, ok := rs.cache[keys[ti]]
		if ok && len(ts.ids) == counts[ti] {
			rs.stats.TierHits++
		} else {
			var err error
			ts, err = synthesizeTier(tier, tenants[k:k+counts[ti]], opts)
			if err != nil {
				// Unreachable: the hashing walk performed the same calls.
				return rs.full(tenants, spec)
			}
			rs.stats.TierMisses++
		}
		next[keys[ti]] = ts
		tiers = append(tiers, ts)
		k += counts[ti]
	}
	rs.cache = next
	var same *flatTable
	if sameIDs {
		same = rs.last
	}
	jp := assemble(spec, tiers, opts.Base, byName, same)
	rs.last = jp.tab
	return jp, nil
}

// The tier content keys mix with FNV-1a for strings and a
// splitmix64-style round for integers. The hashing walk runs on every
// recompilation, so the integer path is three multiplies instead of
// FNV's eight byte rounds — it showed up as a third of the incremental
// profile before. Both are order-sensitive; a 64-bit key over a cache of
// one generation's tiers makes accidental collisions (which the n guard
// further narrows) negligible.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	v *= 0x9e3779b97f4a7c15 // splitmix64 finalizer on the value...
	v ^= v >> 29
	v *= 0xbf58476d1ce4e5b9
	return (h ^ v) * fnvPrime // ...then an order-sensitive combine
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: ("ab","c") ≠ ("a","bc")
}
