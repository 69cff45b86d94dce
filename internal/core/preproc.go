package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
)

// UnknownTenantAction selects what the pre-processor does with packets
// whose tenant label has no transformation.
type UnknownTenantAction int

const (
	// UnknownWorst re-ranks unknown traffic to one past the joint
	// policy's worst rank, so it only uses leftover capacity (default).
	UnknownWorst UnknownTenantAction = iota
	// UnknownPass forwards the packet with its rank unchanged.
	UnknownPass
	// UnknownDrop rejects the packet.
	UnknownDrop
)

// String implements fmt.Stringer.
func (a UnknownTenantAction) String() string {
	switch a {
	case UnknownWorst:
		return "worst"
	case UnknownPass:
		return "pass"
	case UnknownDrop:
		return "drop"
	default:
		return fmt.Sprintf("unknown-action(%d)", int(a))
	}
}

// ErrUnknownTenant is reported by Process when a packet's tenant has no
// transformation and the action is UnknownDrop.
type ErrUnknownTenant struct {
	Tenant pkt.TenantID
}

// Error implements error.
func (e *ErrUnknownTenant) Error() string {
	return fmt.Sprintf("core: no transformation for tenant %d", e.Tenant)
}

// PreprocStats counts pre-processor activity.
type PreprocStats struct {
	// Processed counts packets whose rank was rewritten.
	Processed uint64
	// Unknown counts packets with an unrecognized tenant label.
	Unknown uint64
	// Clamped counts packets whose incoming rank fell outside the
	// tenant's declared bounds (a signal the monitor uses for
	// adversarial-workload detection, §2).
	Clamped uint64
}

// Preprocessor is QVISOR's data-plane component (§3.3): for each incoming
// packet it extracts the tenant identifier and packet rank, looks up the
// tenant's transformation functions, rewrites the rank, and forwards the
// packet to the hardware scheduler.
//
// It is a pointer to a compiled joint policy plus the single-writer
// statistics of the packets it ran through it; Process, ApplyBatch and
// ProcessFrame are all the one kernel, flatTable.rewrite. Update or Pin
// swap the table when the runtime controller re-synthesizes the policy.
type Preprocessor struct {
	tab    *flatTable
	action UnknownTenantAction
	stage  preprocStage
	obs    *preprocObs
	// dropScratch is ApplyBatch's reusable staging area for dropped
	// packets, so the batched path stays allocation-free in steady state.
	dropScratch []*pkt.Packet
}

// flatTransform is one slot of the compiled table: Transform's fields
// pre-resolved (weight defaulted, quantization regime chosen, the divisor
// inverted) so the per-packet rewrite is plain arithmetic with no map
// access and, for an unweighted tenant, no division.
type flatTransform struct {
	lo, hi int64 // original clamp bounds (for the Clamped counter)
	span   int64 // hi-lo: upper clamp of d
	m      int64 // Levels-1: quantization numerator
	w      int64 // weight, defaulted to 1
	stride int64
	base   int64 // Offset+Phase: the rank of level 0
	// inv is ⌊(2^64-1)/span⌋, what the exact quantizer multiplies by in
	// place of dividing by span; 0 selects the monotone float fallback.
	inv uint64
}

// flatTable is the compiled joint policy, the only form the rewrite kernel
// executes. It is total over pkt.TenantID: index maps the IDs in
// [min, min+len(index)) to slots, and every other ID — like every gap in
// that range — to slot 0, which stands for "no transform"; ids[slot] is the
// tenant compiled into a slot. The slots themselves sit in blocks, one per
// strict tier of a synthesized policy and a single one for a table
// compiled from the transform map: blockOf[slot] names the block, which holds slot first+i at slots[i]
// relative to the block's base. A block's slots are its tier's cached
// compiled slots, so a generation shares those of every tier it did not
// change, wherever the tier lands. A table is immutable, so epochs,
// pre-processors and their shard clones share one, and consecutive
// synthesized generations share ids and index when they have the same IDs
// in the same order, and blockOf when their tiers hold as many tenants.
type flatTable struct {
	policy  *JointPolicy
	min     uint
	index   []uint32
	ids     []pkt.TenantID
	blockOf []uint32
	blocks  []flatBlock
}

// flatBlock is the compiled slots of one tier, landed at base: slot first+i
// of the table rewrites to base plus what slots[i] computes.
type flatBlock struct {
	base  int64
	first uint32
	slots []flatTransform
}

// slot returns the table slot of a tenant ID, 0 when it has no transform.
func (t *flatTable) slot(id pkt.TenantID) uint32 {
	if i := uint(id) - t.min; i < uint(len(t.index)) {
		return t.index[i]
	}
	return 0
}

// table returns the compiled form of jp: the one the synthesizer laid out,
// or, for a policy it did not (decoded, hand-built, or a copy of a
// synthesized one), a table compiled from the transform map.
func (jp *JointPolicy) table() *flatTable {
	if jp.tab != nil && jp.tab.policy == jp {
		return jp.tab
	}
	return buildFlatTable(jp)
}

// buildFlatTable compiles the joint policy's transform map in one pass into
// one block at base 0: slots fill in iteration order, the index afterwards,
// once the ID range is known.
func buildFlatTable(jp *JointPolicy) *flatTable {
	n := len(jp.Transforms)
	slots := make([]flatTransform, 0, n)
	t := &flatTable{policy: jp, ids: make([]pkt.TenantID, 1, n+1), blockOf: make([]uint32, n+1)}
	for id, tr := range jp.Transforms {
		slots = append(slots, compileTransform(tr))
		t.ids = append(t.ids, id)
	}
	t.blocks = []flatBlock{{first: 1, slots: slots}}
	t.min, t.index = indexSlots(t.ids)
	return t
}

// compileTransform resolves one transform into a table slot.
func compileTransform(tr Transform) flatTransform {
	s := flatTransform{lo: tr.Lo, hi: tr.Hi, span: tr.Hi - tr.Lo, m: tr.Levels - 1,
		w: tr.weight(), stride: tr.Stride, base: tr.Offset + tr.Phase}
	if s.span <= 0 || s.m <= 0 {
		// Degenerate quantizer: Quantize pins the level to 0, which
		// Apply then clamps to Levels-1 when that is lower, so the
		// output is one constant rank. Fold it into the base (with
		// the same truncating div/mod Apply uses) and let the kernel
		// quantize everything to level 0.
		lvl := int64(0)
		if s.m < 0 {
			lvl = s.m
		}
		s.base += (lvl/s.w)*s.stride + lvl%s.w
		s.span, s.m = 1, 0
	}
	if s.m <= (1<<62)/(s.span+1) {
		s.inv = math.MaxUint64 / uint64(s.span)
	}
	return s
}

// indexSlots lays out the ID→slot index of a table whose slot k holds
// ids[k] (ids[0], slot 0, is unused).
func indexSlots(ids []pkt.TenantID) (uint, []uint32) {
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

// preprocStage is the single-writer bookkeeping of one pre-processor, plain
// arithmetic on the data path like netsim's port series: stats is exact at
// all times, and an instrumented pre-processor also stages its per-tenant
// series in tenants for Flush to publish (nil, and a nil check, otherwise).
type preprocStage struct {
	stats PreprocStats
	// tenants has one entry per table slot, counting since the last
	// Flush; entry 0 uses only n, for unknown-tenant packets.
	tenants []slotStage
}

type slotStage struct {
	n        uint64 // packets rewritten
	clamped  uint64 // of those, incoming rank outside the declared bounds
	shiftSum int64
	shift    [obs.HistogramBuckets + 1]uint64 // |joint - tenant| by obs.BucketIndex
}

// rewrite is the rank-rewrite kernel — the one place outside
// Transform.Apply (the spec it is tested against) that computes clamp,
// quantize and slot placement. It rewrites ps in order and returns how many
// leading packets it admitted: len(ps), or the index of the first packet it
// rejected (unknown tenant under UnknownDrop), which it counts but leaves
// untouched for the caller to drop and resume after. A nil stage runs it
// read-only, for concurrent readers of a shared table.
func (t *flatTable) rewrite(ps []*pkt.Packet, action UnknownTenantAction, stage *preprocStage) int {
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
		b := &t.blocks[t.blockOf[slot]]
		s := &b.slots[slot-b.first]
		in := p.Rank
		// Out-of-range ranks pin d to the boundary without ever
		// subtracting (overflow-safe for extreme ranks, matching Quantize's
		// clamp-before-subtract order).
		d := in - s.lo
		clamped := in < s.lo || in > s.hi
		if clamped {
			d = 0
			if in > s.hi {
				d = s.span
			}
		}
		var lvl int64
		if s.inv == 0 {
			lvl = int64(float64(d) / float64(s.span) * float64(s.m))
			if lvl > s.m {
				lvl = s.m
			}
		} else {
			// ⌊x/span⌋ for x = d·m < 2^62: the product with the
			// reciprocal falls short by at most one, which the
			// remainder shows.
			x := uint64(d * s.m)
			q, _ := bits.Mul64(x, s.inv)
			if x-q*uint64(s.span) >= uint64(s.span) {
				q++
			}
			lvl = int64(q)
		}
		if s.w == 1 {
			lvl *= s.stride
		} else {
			lvl = (lvl/s.w)*s.stride + lvl%s.w
		}
		out := b.base + s.base + lvl
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

// Metric families exported by an instrumented pre-processor.
const (
	MetricPreprocProcessed = "qvisor_preproc_processed_total"
	MetricPreprocClamped   = "qvisor_preproc_clamped_total"
	MetricPreprocUnknown   = "qvisor_preproc_unknown_total"
	MetricPreprocRankShift = "qvisor_preproc_rank_shift"
)

// preprocObs holds the registry-backed instruments of one pre-processor:
// per-tenant counters plus a rank-shift magnitude histogram, resolved to
// one handle set per table slot so Flush publishes without a lookup.
type preprocObs struct {
	reg     *obs.Registry
	nameOf  func(pkt.TenantID) string
	unknown *obs.Counter
	slots   []preprocTenantObs
}

// preprocTenantObs is one slot's handles and the tenant, by ID and label,
// they were resolved for.
type preprocTenantObs struct {
	id        pkt.TenantID
	name      string
	processed *obs.Counter
	clamped   *obs.Counter
	shift     *obs.Histogram
}

// EnableMetrics mirrors the pre-processor's counters into reg, labeled per
// tenant. nameOf maps tenant IDs to the names used as label values; nil
// falls back to "tenant-<id>". A nil registry disables instrumentation.
// Counts are staged per packet and reach the registry on Flush; Update and
// Pin keep the handles when every slot still holds the same tenant under
// the same name and re-resolve them otherwise, so re-synthesized policies
// keep their series.
func (pp *Preprocessor) EnableMetrics(reg *obs.Registry, nameOf func(pkt.TenantID) string) {
	var o *preprocObs
	if reg != nil {
		if nameOf == nil {
			nameOf = func(id pkt.TenantID) string { return fmt.Sprintf("tenant-%d", id) }
		}
		o = &preprocObs{reg: reg, nameOf: nameOf, unknown: reg.Counter(MetricPreprocUnknown,
			"Packets whose tenant label has no transformation.")}
	}
	pp.bind(pp.tab, o.forTable(pp.tab))
}

// forTable returns o's instruments for t: o itself when every slot of t
// holds the (ID, name) o resolved it for, otherwise a copy (so shard clones
// sharing o are unaffected) with its per-slot handles resolved for t; nil
// stays nil.
func (o *preprocObs) forTable(t *flatTable) *preprocObs {
	if o == nil || o.covers(t) {
		return o
	}
	c := *o
	c.slots = make([]preprocTenantObs, len(t.ids))
	for slot := 1; slot < len(t.ids); slot++ {
		id := t.ids[slot]
		name := c.nameOf(id)
		l := obs.L("tenant", name)
		c.slots[slot] = preprocTenantObs{
			id:   id,
			name: name,
			processed: c.reg.Counter(MetricPreprocProcessed,
				"Packets whose rank the pre-processor rewrote.", l),
			clamped: c.reg.Counter(MetricPreprocClamped,
				"Packets whose incoming rank fell outside the tenant's declared bounds.", l),
			shift: c.reg.Histogram(MetricPreprocRankShift,
				"Absolute rank-rewrite magnitude |joint - tenant| (log2 buckets).", l),
		}
	}
	return &c
}

// covers reports whether o's handles were resolved for exactly t's slots:
// the same tenant ID in every slot, under the name nameOf gives it now.
func (o *preprocObs) covers(t *flatTable) bool {
	if len(o.slots) != len(t.ids) {
		return false
	}
	for slot := 1; slot < len(t.ids); slot++ {
		if h := &o.slots[slot]; h.id != t.ids[slot] || h.name != o.nameOf(h.id) {
			return false
		}
	}
	return true
}

// NewPreprocessor returns a pre-processor executing the given joint policy.
func NewPreprocessor(jp *JointPolicy, action UnknownTenantAction) *Preprocessor {
	return newPreprocessor(jp.table(), action, nil)
}

func newPreprocessor(t *flatTable, action UnknownTenantAction, o *preprocObs) *Preprocessor {
	pp := &Preprocessor{action: action}
	pp.bind(t, o)
	return pp
}

// Policy returns the joint policy currently deployed.
func (pp *Preprocessor) Policy() *JointPolicy { return pp.tab.policy }

// Update deploys a new joint policy. Packets processed afterwards use the
// new transformations — the event-driven reconfiguration of §2 (Idea 2).
func (pp *Preprocessor) Update(jp *JointPolicy) {
	t := jp.table()
	pp.bind(t, pp.obs.forTable(t))
}

// Pin points the pre-processor at an already published policy generation,
// sharing the epoch's table instead of compiling another. A no-op when it
// already executes that generation.
func (pp *Preprocessor) Pin(e *Epoch) {
	if pp.tab != e.tab {
		pp.bind(e.tab, pp.obs.forTable(e.tab))
	}
}

// bind flushes the counts staged against the old table's slots, then
// points the pre-processor at t with o's instruments (nil for none).
func (pp *Preprocessor) bind(t *flatTable, o *preprocObs) {
	pp.Flush()
	pp.tab, pp.obs = t, o
	switch {
	case o == nil:
		pp.stage.tenants = nil
	case len(pp.stage.tenants) != len(t.ids):
		pp.stage.tenants = make([]slotStage, len(t.ids))
	}
}

// Stats returns a snapshot of the counters (zero for a nil pre-processor).
func (pp *Preprocessor) Stats() PreprocStats {
	if pp == nil {
		return PreprocStats{}
	}
	return pp.stage.stats
}

// Flush publishes the staged per-tenant counts to the registry and resets
// them. Like the flush of netsim's port series it belongs to the goroutine
// driving the pre-processor and is called at sync points: netsim flushes
// from Run, PortStats and FlushMetrics; call it directly before scraping a
// registry fed by bare Process calls. Stats needs no flush. A no-op on a
// nil or uninstrumented pre-processor.
func (pp *Preprocessor) Flush() {
	if pp == nil {
		return
	}
	for i := range pp.stage.tenants {
		st := &pp.stage.tenants[i]
		if st.n == 0 {
			continue
		}
		if i == 0 {
			pp.obs.unknown.Add(st.n)
		} else {
			o := &pp.obs.slots[i]
			o.processed.Add(st.n)
			o.clamped.Add(st.clamped)
			o.shift.AddBuckets(st.shift[:], st.shiftSum)
		}
		*st = slotStage{}
	}
}

// Clone returns a pre-processor with a private stage that shares this
// one's compiled table and registry instruments. The sharded simulator
// gives each shard a clone so Process never writes shared plain memory:
// the table is immutable and the registry instruments are atomic. Update
// and Pin must not run concurrently with clones processing packets. Clone
// of nil is nil.
func (pp *Preprocessor) Clone() *Preprocessor {
	if pp == nil {
		return nil
	}
	return newPreprocessor(pp.tab, pp.action, pp.obs)
}

// Absorb folds another pre-processor's counters into this one — how
// per-shard clone stats roll back up into the parent after a sharded run.
func (pp *Preprocessor) Absorb(st PreprocStats) {
	pp.stage.stats.Processed += st.Processed
	pp.stage.stats.Unknown += st.Unknown
	pp.stage.stats.Clamped += st.Clamped
}

// Process rewrites p.Rank according to the joint policy: the batch kernel
// at n=1. It returns false if the packet must be dropped (unknown tenant
// under UnknownDrop).
func (pp *Preprocessor) Process(p *pkt.Packet) bool {
	one := [1]*pkt.Packet{p}
	return pp.tab.rewrite(one[:], pp.action, &pp.stage) == 1
}

// ApplyBatch rewrites the ranks of a whole batch of packets, byte-identical
// to calling Process on each packet in order (same ranks, same stats, same
// drop decisions). It returns the number of packets kept: ps[:kept] holds
// them in their original relative order, ps[kept:] the dropped packets
// (unknown tenant under UnknownDrop), also in order, for the caller to
// release. Without drops it is one kernel call that moves nothing; steady
// state allocates nothing.
func (pp *Preprocessor) ApplyBatch(ps []*pkt.Packet) int {
	kept := 0
	for i := 0; i < len(ps); {
		n := pp.tab.rewrite(ps[i:], pp.action, &pp.stage)
		if kept != i {
			copy(ps[kept:], ps[i:i+n])
		}
		kept += n
		if i += n; i < len(ps) {
			pp.dropScratch = append(pp.dropScratch, ps[i])
			i++
		}
	}
	copy(ps[kept:], pp.dropScratch)
	pp.dropScratch = pp.dropScratch[:0]
	return kept
}

// ProcessFrame parses a wire-format QVISOR label at the start of frame,
// applies the transformation, and writes the updated label back in place.
// This is the path a hardware deployment would take; the simulator uses
// Process directly on packet structs.
func (pp *Preprocessor) ProcessFrame(frame []byte) error {
	var l pkt.Label
	if err := l.UnmarshalBinary(frame); err != nil {
		return err
	}
	p := pkt.Packet{Tenant: l.Tenant, Rank: l.Rank}
	if !pp.Process(&p) {
		return &ErrUnknownTenant{Tenant: l.Tenant}
	}
	l.Rank = p.Rank
	return l.Encode(frame)
}
