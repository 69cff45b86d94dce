package core

import (
	"unsafe"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// Resynthesizer produces the same joint policies as Synthesize while
// memoizing per-tier results, so that a single-tenant change recompiles
// only the tiers it touches. The unit of caching is one strict tier
// synthesized and compiled relative to base 0 (tierSynth): tiers are laid
// out contiguously and only Transform.Offset and a slot's base depend on
// where a tier lands, so a cached tier's transforms are re-shifted by the
// running base during assembly, its compiled slots land there as one block
// of the rewrite table, and the output is byte-identical to a full
// synthesis (proven by the differential test over seeded churn sequences),
// rewrite table included.
//
// Each call first compares its inputs, spec position by spec position,
// with a flat snapshot of what the last generation compiled there: the
// same *Tenant, the same spec name, and the same values the tier's
// synthesis reads (tenant name, ID, effective bounds, resolved level count,
// share weight, level). A tier whose every position matches, at the same
// positions as before, is the last generation's tier again and costs one
// compare per position. Only a tier holding a changed position is re-keyed:
// a content hash over everything its synthesis consumes, looked up in the
// cache and, on a miss, synthesized. The cache holds exactly the tiers of
// the last generation assembled, so a dead tier never outlives the
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
	// same order, its slot→block map when its tiers hold as many tenants,
	// and its ByName map when each tier names the same tenants too — the
	// common case of a bounds or weight edit — skipping the only
	// O(tenants) string-keyed pass left.
	last *flatTable
	// tiers are that generation's tiers in spec order and inputs its spec
	// positions: the snapshot a call compares with. Both are empty when it
	// was not assembled from tiers (see full).
	tiers  []*tierSynth
	inputs []position

	// stale is a scratch list of the tiers a call found changed.
	stale []staleTier

	stats ResynthStats
}

// position is what the synthesis of one spec position read, as the
// snapshot keeps it.
type position struct {
	tenant *Tenant
	// spec is the spec's string at the position, name the tenant's Name.
	spec, name string
	id         pkt.TenantID
	bounds     rank.Bounds // effective
	levels     int64       // resolved
	weight     int64       // as written in the spec, 1 when unweighted
	level      int         // index of the level within its tier
}

// staleTier is a tier of the spec being compiled whose positions differ
// from the snapshot's: its index, its positions, and once resolved its
// cache key and compiled form.
type staleTier struct {
	tier, start, n int
	key            tierKey
	ts             *tierSynth
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
// makes is not assembled from cached tiers, so the cache, the snapshot and
// the reuse state start over.
func (rs *Resynthesizer) full(tenants []*Tenant, spec *policy.Spec) (*JointPolicy, error) {
	rs.stats.Full++
	clear(rs.cache)
	rs.last = nil
	rs.tiers, rs.inputs = resize(rs.tiers, 0), resize(rs.inputs, 0)
	return Synthesize(tenants, spec, rs.opts)
}

// Resynthesize is Synthesize with per-tier memoization: identical
// results, identical errors. tenants must be the registered tenant set;
// the fast path additionally expects them in spec order (as the runtime
// controller builds them) and falls back to a full synthesis otherwise.
func (rs *Resynthesizer) Resynthesize(tenants []*Tenant, spec *policy.Spec) (*JointPolicy, error) {
	jp, _, err := rs.resynthesize(tenants, spec, false)
	return jp, err
}

// resynthesize is Resynthesize. When pinned is set, it first requires spec
// to name the snapshot's tenants: the same names, position by position. If
// it does not, the call reports false and changes nothing, counters
// included; the runtime controller, which patched tenants from the
// positions of its last walk, then walks the spec again.
func (rs *Resynthesizer) resynthesize(tenants []*Tenant, spec *policy.Spec, pinned bool) (*JointPolicy, bool, error) {
	if rs.opts.validate() != nil || spec == nil {
		if pinned {
			return nil, false, nil
		}
		rs.stats.Calls++
		jp, err := rs.full(tenants, spec)
		return jp, true, err
	}
	opts := rs.opts.defaults()
	k, ok := rs.diff(tenants, spec, opts.DefaultLevels, pinned)
	if !ok {
		return nil, false, nil
	}
	rs.stats.Calls++
	if k != len(tenants) {
		// Registered tenants the spec does not reference: canonical error
		// via the full path.
		jp, err := rs.full(tenants, spec)
		return jp, true, err
	}
	jp, err := rs.rebuild(tenants, spec, opts)
	return jp, true, err
}

// diff is the snapshot pass: one walk over the spec that compares each
// position with the snapshot's and lists in rs.stale every tier that is not
// the last generation's tier at the same positions. It returns the number
// of positions, and false only when pinned and the names differ.
func (rs *Resynthesizer) diff(tenants []*Tenant, spec *policy.Spec, def int64, pinned bool) (int, bool) {
	rs.stale = rs.stale[:0]
	in := rs.inputs
	k, was := 0, 0 // was: where tier ti started in the last generation
	for ti, tier := range spec.Tiers {
		start := k
		same := ti < len(rs.tiers) && start == was && len(tier.Levels) > 0
		for li, lvl := range tier.Levels {
			weights := lvl.Weights
			if len(lvl.Tenants) == 0 || weights != nil && len(weights) != len(lvl.Tenants) {
				same, weights = false, nil
			}
			for i, name := range lvl.Tenants {
				if k >= len(in) || !identical(name, in[k].spec) {
					if pinned {
						return k, false
					}
					same = false
				} else if same {
					var t *Tenant
					if k < len(tenants) {
						t = tenants[k]
					}
					s := &in[k]
					w := int64(1)
					if weights != nil {
						w = weights[i]
					}
					// A tenant that declares its bounds and level count
					// outright is compared field by field; any other
					// resolves them first.
					same = t == s.tenant && identical(t.Name, s.name) && t.ID == s.id && li == s.level && w == s.weight &&
						(t.Bounds == s.bounds && t.Bounds != rank.Bounds{} && t.Levels == s.levels || s.resolves(t, def))
				}
				k++
			}
		}
		if ti < len(rs.tiers) {
			was += len(rs.tiers[ti].ids)
			same = same && k-start == len(rs.tiers[ti].ids)
		}
		if !same {
			rs.stale = append(rs.stale, staleTier{tier: ti, start: start, n: k - start})
		}
	}
	if pinned && k != len(in) {
		return k, false
	}
	return k, true
}

// resolves is diff's compare for a tenant whose effective bounds or level
// count derive from its algorithm or its span.
func (s *position) resolves(t *Tenant, def int64) bool {
	b, lt, ok := tenantInputs(t, def)
	return ok && b == s.bounds && lt == s.levels
}

// identical reports whether a and b are the same string: the same length
// at the same address. Strings the snapshot compiled keep their address
// while the spec and the tenant hold them, so a position costs no byte
// compare; a copy of equal bytes reads as changed and is re-keyed.
func identical(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// rebuild makes the generation once diff has listed the stale tiers:
// each is keyed (with the checks a full synthesis makes, re-reading its
// positions into the snapshot), looked up and on a miss synthesized; every
// other tier is the last generation's. The cache then becomes this
// generation's.
func (rs *Resynthesizer) rebuild(tenants []*Tenant, spec *policy.Spec, opts SynthOptions) (*JointPolicy, error) {
	// The stale tiers are compared with the last generation's the way
	// diff compared the others: its IDs in slot order, its tiers' names.
	var prev []TierPlan
	if rs.last != nil {
		prev = rs.last.policy.Tiers
	}
	sameIDs := rs.last != nil && len(rs.last.ids) == len(tenants)+1
	sameNames := rs.last != nil && len(prev) == len(spec.Tiers)
	rs.inputs = resize(rs.inputs, len(tenants))
	for i := range rs.stale {
		st := &rs.stale[i]
		ts := tenants[st.start : st.start+st.n]
		if !rs.key(st, spec.Tiers[st.tier], ts, opts.DefaultLevels) {
			return rs.full(tenants, spec)
		}
		sameNames = sameNames && len(prev[st.tier].Tenants) == st.n
		for j, t := range ts {
			sameIDs = sameIDs && rs.last.ids[st.start+j+1] == t.ID
			sameNames = sameNames && prev[st.tier].Tenants[j] == t.Name
		}
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

	for i := range rs.stale {
		st := &rs.stale[i]
		if ts, ok := rs.cache[st.key]; ok && len(ts.ids) == st.n {
			st.ts = ts
			rs.stats.TierHits++
			continue
		}
		ts, err := synthesizeTier(spec.Tiers[st.tier], tenants[st.start:st.start+st.n], opts)
		if err != nil {
			// Unreachable: key performed the same checks.
			return rs.full(tenants, spec)
		}
		ts.key, st.ts = st.key, ts
		rs.stats.TierMisses++
	}
	rs.stats.TierHits += uint64(len(spec.Tiers) - len(rs.stale))

	// The tiers that went stale or fell off the end leave the cache, the
	// stale tiers' new forms come in.
	for _, st := range rs.stale {
		if st.tier < len(rs.tiers) {
			delete(rs.cache, rs.tiers[st.tier].key)
		}
	}
	for _, ts := range rs.tiers[min(len(spec.Tiers), len(rs.tiers)):] {
		delete(rs.cache, ts.key)
	}
	rs.tiers = resize(rs.tiers, len(spec.Tiers))
	for _, st := range rs.stale {
		rs.cache[st.key], rs.tiers[st.tier] = st.ts, st.ts
	}
	clear(rs.stale)

	jp := assemble(spec, rs.tiers, opts.Base, byName, rs.last, sameIDs)
	rs.last = jp.tab
	return jp, nil
}

// resize returns s with length n, keeping its first elements. Elements cut
// off are zeroed, so the snapshot holds no tenant or tier it dropped.
func resize[T any](s []T, n int) []T {
	if n < len(s) {
		clear(s[n:])
	}
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// key hashes into st.key everything the stale tier's synthesis consumes —
// the level structure, each tenant's share weight, and each tenant's name,
// ID, resolved level count and effective bounds — and reads each position
// into the snapshot. It checks as it goes that ts lists the tier's tenants
// in spec order and that synthesizing it cannot fail, and reports false
// on any anomaly, and on any input a full synthesis would reject.
func (rs *Resynthesizer) key(st *staleTier, tier policy.Tier, ts []*Tenant, def int64) bool {
	if len(tier.Levels) == 0 {
		return false
	}
	h := uint64(fnvOffset)
	k := 0
	for li, lvl := range tier.Levels {
		if len(lvl.Tenants) == 0 {
			return false
		}
		if lvl.Weights != nil && len(lvl.Weights) != len(lvl.Tenants) {
			return false
		}
		h = fnvU64(h, uint64(len(lvl.Tenants)))
		for i, name := range lvl.Tenants {
			if name == "" || k >= len(ts) || ts[k].Name != name {
				return false
			}
			if lvl.Weights != nil && lvl.Weights[i] < 1 {
				return false
			}
			t := ts[k]
			b, lt, ok := tenantInputs(t, def)
			if !ok {
				return false
			}
			h = fnvStr(h, name)
			h = fnvU64(h, uint64(t.ID))
			h = fnvU64(h, uint64(b.Lo))
			h = fnvU64(h, uint64(b.Hi))
			h = fnvU64(h, uint64(lt))
			h = fnvU64(h, uint64(lvl.WeightOf(i)))
			rs.inputs[st.start+k] = position{tenant: t, spec: name, name: t.Name, id: t.ID,
				bounds: b, levels: lt, weight: lvl.WeightOf(i), level: li}
			k++
		}
	}
	st.key = tierKey{hash: h, n: k}
	return k == len(ts)
}

// The tier content keys mix with FNV-1a for strings and a
// splitmix64-style round for integers; the integer path is three
// multiplies instead of FNV's eight byte rounds. Both are order-sensitive;
// a 64-bit key over a cache of one generation's tiers makes accidental
// collisions (which the n guard further narrows) negligible.
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
