// Package slo is QVISOR's online fidelity watchdog: it turns the offline
// conformance oracles (internal/conform) into always-on telemetry an
// operator can page on.
//
// The core promise of QVISOR is that a virtualized policy running on an
// approximate backend behaves like the ideal PIFO deployment. Offline,
// that is checked by qvisor-conform batch sweeps; online, this package
// checks it continuously on a sampled mirror of live traffic:
//
//   - Shadow-oracle sampling. A flow-consistent 1-in-N sample (Samples:
//     flow % N == 0, the flight recorder's rule, so at equal rates trace
//     and SLO observe the same packets) feeds a bounded conform.RefPIFO
//     shadow per port. On every sampled dequeue the watchdog compares the
//     backend's choice against the shadow's ideal head: a strictly lower
//     shadow rank is a scheduling inversion, and the rank delta feeds a
//     log2 displacement histogram. On every sampled drop it compares
//     against the shadow's worst rank: dropping a packet while a strictly
//     worse one stays queued is drop divergence from the ideal.
//   - Per-tenant SLIs: queueing-delay quantiles (p50/p99/p999 over log2
//     buckets via obs.BucketsQuantile), drop counts by sched.DropCause,
//     and achieved throughput share vs an optional entitlement.
//   - Burn-rate health. Every SLI feeds fixed sim-time windows; health is
//     the SRE multi-window burn rate (error rate over budget) on a short
//     and a long horizon, yielding OK/WARN/PAGE per SLO.
//
// Hot-path contract: the unsampled path is one nil check and one modulo —
// zero allocations (pinned by TestAllocBudgetSimSteadyStateWatchdog in
// internal/netsim, which asks Samples once per packet and calls no hook).
// Sampled work happens under one mutex per watchdog so /v1/slo snapshots
// can read concurrently with a live simulation.
//
// Sharding: like trace rings and pre-processor stats, the watchdog forks
// one child per shard (Shard) and merges them after the run (Absorb). All
// SLIs are defined to be independent of tie order among equal-rank and
// same-nanosecond events — strict rank inequalities, rank deltas rather
// than queue positions, and windows keyed by absolute sim-time index — so
// a sharded run reports byte-identical snapshots to a single-threaded one.
package slo

import (
	"strconv"
	"sync"

	"qvisor/internal/conform"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

// Defaults. One base window of simulated time stands in for one minute of
// wall clock on a production box, so the default short/long burn horizons
// (5 and 60 windows) mirror the classic 5m/1h multi-window alert.
const (
	// DefaultSampleN samples one flow in 64, matching the flight
	// recorder's default overhead envelope (≤3% end to end).
	DefaultSampleN = 64
	// DefaultWindowNs is the base SLI window: 1ms of simulated time.
	DefaultWindowNs = int64(time1ms)
	// DefaultShortWindows and DefaultLongWindows are the burn-rate
	// horizons in base windows ("5 minutes" and "1 hour" equivalents).
	DefaultShortWindows = 5
	DefaultLongWindows  = 60
	// DefaultShadowCapacityBytes bounds each per-port shadow queue. The
	// shadow holds the sampled subset of the real queue, so with the
	// default 150KB port buffers this bound is never hit; it exists to
	// keep a leak (a backend dropping packets without the drop callback)
	// from growing the shadow without limit.
	DefaultShadowCapacityBytes = 1 << 20
	// DefaultDelayBudgetNs is the per-hop queueing-delay SLO threshold.
	DefaultDelayBudgetNs = int64(time1ms)
	// DefaultWarnBurn and DefaultPageBurn are the burn-rate thresholds:
	// WARN when the error budget burns 2x faster than sustainable, PAGE
	// at 10x (both horizons must agree, the standard multi-window guard
	// against paging on a blip).
	DefaultWarnBurn = 2.0
	DefaultPageBurn = 10.0
)

const time1ms = 1_000_000 // sim ns

// Default error budgets: the budgeted fraction of sampled events that may
// be errors before the SLO burns at exactly 1x.
const (
	// DefaultInversionBudget allows 1% of sampled dequeues to be
	// inversions.
	DefaultInversionBudget = 0.01
	// DefaultDivergenceBudget allows 0.5% of sampled drops to diverge
	// from the ideal eviction choice.
	DefaultDivergenceBudget = 0.005
	// DefaultDelayBudgetFraction allows 5% of sampled dequeues to exceed
	// DelayBudgetNs.
	DefaultDelayBudgetFraction = 0.05
)

// Config parameterizes a Watchdog. The zero value is usable: every field
// falls back to the defaults above.
type Config struct {
	// SampleN enables flow-consistent 1-in-N sampling: packets with
	// Flow % SampleN == 0 are mirrored. 0 defaults to DefaultSampleN;
	// 1 samples every packet.
	SampleN uint64
	// WindowNs is the base SLI window in simulated nanoseconds.
	WindowNs int64
	// ShortWindows and LongWindows are the burn-rate horizons in base
	// windows. LongWindows is also the ring retention.
	ShortWindows, LongWindows int
	// ShadowCapacityBytes bounds each per-port shadow queue.
	ShadowCapacityBytes int
	// DelayBudgetNs is the queueing-delay SLO threshold per hop.
	DelayBudgetNs int64
	// InversionBudget, DivergenceBudget, DelayBudgetFraction are the
	// per-SLO error budgets (fractions in (0, 1]).
	InversionBudget, DivergenceBudget, DelayBudgetFraction float64
	// WarnBurn and PageBurn are the burn-rate thresholds.
	WarnBurn, PageBurn float64
	// Tenants optionally names tenant IDs for snapshots; unnamed IDs
	// render as "tenant<id>".
	Tenants map[pkt.TenantID]string
	// Entitlements optionally declares each tenant's entitled throughput
	// share (fraction of delivered bytes) for the achieved-vs-entitled
	// SLI.
	Entitlements map[pkt.TenantID]float64
}

func (c Config) withDefaults() Config {
	if c.SampleN == 0 {
		c.SampleN = DefaultSampleN
	}
	if c.WindowNs <= 0 {
		c.WindowNs = DefaultWindowNs
	}
	if c.ShortWindows <= 0 {
		c.ShortWindows = DefaultShortWindows
	}
	if c.LongWindows <= 0 {
		c.LongWindows = DefaultLongWindows
	}
	if c.LongWindows < c.ShortWindows {
		c.LongWindows = c.ShortWindows
	}
	if c.ShadowCapacityBytes <= 0 {
		c.ShadowCapacityBytes = DefaultShadowCapacityBytes
	}
	if c.DelayBudgetNs <= 0 {
		c.DelayBudgetNs = DefaultDelayBudgetNs
	}
	if c.InversionBudget <= 0 {
		c.InversionBudget = DefaultInversionBudget
	}
	if c.DivergenceBudget <= 0 {
		c.DivergenceBudget = DefaultDivergenceBudget
	}
	if c.DelayBudgetFraction <= 0 {
		c.DelayBudgetFraction = DefaultDelayBudgetFraction
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = DefaultWarnBurn
	}
	if c.PageBurn <= 0 {
		c.PageBurn = DefaultPageBurn
	}
	return c
}

// window is one base SLI window. All fields are integer counts so shard
// merges (plain sums keyed by the absolute window index) commute.
type window struct {
	idx  int64  // absolute window index (now / WindowNs); -1 when empty
	arr  uint64 // sampled enqueues
	deq  uint64 // sampled dequeues
	inv  uint64 // inversions among them
	div  uint64 // drop divergences
	slow uint64 // dequeues over the delay budget
}

func (w *window) add(o *window) {
	w.arr += o.arr
	w.deq += o.deq
	w.inv += o.inv
	w.div += o.div
	w.slow += o.slow
}

// tenantState accumulates one tenant's SLIs. Integer counts only, for the
// same merge-commutativity reason as window.
type tenantState struct {
	delayBuckets [obs.HistogramBuckets + 1]uint64
	delaySum     int64
	delayCount   uint64
	drops        [sched.NumDropCauses]uint64
	deliveredB   uint64
	deliveredP   uint64
}

// Watchdog is the online fidelity watchdog. A nil *Watchdog is a no-op
// on every method, so call sites instrument unconditionally. Use New to
// construct one; hand ports a PortWatch each via PortWatch.
type Watchdog struct {
	cfg Config

	mu     sync.Mutex
	rev    uint64 // sampled events processed; serves as the snapshot ETag
	lastNs int64  // latest event time observed

	// Cumulative (whole-run) counters.
	sampledEnq     uint64
	sampledDeq     uint64
	sampledDrop    uint64
	sampledDeliver uint64
	inversions     uint64
	dropDiverged   uint64
	slowDeq        uint64

	// Rank displacement of inversions: p.Rank − shadow minimum, a pure
	// rank delta so it does not depend on tie order among equal ranks.
	dispBuckets [obs.HistogramBuckets + 1]uint64
	dispSum     int64
	dispCount   uint64
	maxDisp     int64

	// Rolling windows: a ring of LongWindows slots addressed by absolute
	// window index mod ring length. Slots are claimed lazily; a slot is
	// live iff slot.idx > curIdx − len(win).
	win     []window
	curIdx  int64
	scratch window // discard target for out-of-retention events

	tenants map[pkt.TenantID]*tenantState

	// ports tracks every PortWatch handed out, for shadow-occupancy
	// accounting (a drained simulation must leave every shadow empty).
	ports []*PortWatch

	// free recycles watchdog-owned packet copies for the shadow queues.
	// The shadow never retains simulator-owned *pkt.Packet pointers:
	// those are pooled and recycled the moment the simulator releases
	// them, so every mirrored packet is copied into watchdog memory.
	free []*pkt.Packet
}

// New returns a Watchdog for the given configuration.
func New(cfg Config) *Watchdog {
	cfg = cfg.withDefaults()
	w := &Watchdog{
		cfg:     cfg,
		win:     make([]window, cfg.LongWindows),
		curIdx:  -1,
		tenants: make(map[pkt.TenantID]*tenantState),
	}
	for i := range w.win {
		w.win[i].idx = -1
	}
	return w
}

// Config returns the effective (defaulted) configuration.
func (w *Watchdog) Config() Config {
	if w == nil {
		return Config{}
	}
	return w.cfg
}

// Shard forks a child watchdog for shard i, sharing the parent's
// configuration. Children observe their shard's events during a run and
// are merged back with Absorb afterwards — the same fork/merge lifecycle
// as trace.Recorder's Shard and Absorb. No watchdog state depends on which
// shard it watched (which is why Absorb commutes), so i only completes the
// contract. A nil parent yields a nil child.
func (w *Watchdog) Shard(i int) *Watchdog {
	if w == nil {
		return nil
	}
	return New(w.cfg)
}

// Absorb merges a quiescent child watchdog into w: cumulative counters
// and histograms sum, windows merge by absolute index, revisions add.
// The merge is commutative across children, so absorb order (and the
// shard partition itself) cannot change the merged snapshot.
func (w *Watchdog) Absorb(child *Watchdog) {
	if w == nil || child == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	child.mu.Lock()
	defer child.mu.Unlock()

	if child.curIdx > w.curIdx {
		w.curIdx = child.curIdx
	}
	if child.lastNs > w.lastNs {
		w.lastNs = child.lastNs
	}
	w.rev += child.rev
	w.sampledEnq += child.sampledEnq
	w.sampledDeq += child.sampledDeq
	w.sampledDrop += child.sampledDrop
	w.sampledDeliver += child.sampledDeliver
	w.inversions += child.inversions
	w.dropDiverged += child.dropDiverged
	w.slowDeq += child.slowDeq
	for i, n := range child.dispBuckets {
		w.dispBuckets[i] += n
	}
	w.dispSum += child.dispSum
	w.dispCount += child.dispCount
	if child.maxDisp > w.maxDisp {
		w.maxDisp = child.maxDisp
	}
	for i := range child.win {
		cw := &child.win[i]
		if cw.idx < 0 {
			continue
		}
		if slot := w.slotFor(cw.idx); slot != &w.scratch {
			slot.add(cw)
		}
	}
	w.ports = append(w.ports, child.ports...)
	for id, ct := range child.tenants {
		t := w.tenant(id)
		for i, n := range ct.delayBuckets {
			t.delayBuckets[i] += n
		}
		t.delaySum += ct.delaySum
		t.delayCount += ct.delayCount
		for i, n := range ct.drops {
			t.drops[i] += n
		}
		t.deliveredB += ct.deliveredB
		t.deliveredP += ct.deliveredP
	}
}

// Samples reports whether p's flow is in the flow-consistent mirror
// sample: the one decision the watchdog makes about a packet, the same at
// every hook of its life. The simulator asks once per packet; the hooks ask
// for themselves, so a packet nobody stamped is judged all the same. A nil
// watchdog samples nothing.
func (w *Watchdog) Samples(p *pkt.Packet) bool {
	return w != nil && (w.cfg.SampleN <= 1 || p.Flow%w.cfg.SampleN == 0)
}

// slotFor returns the live window slot for absolute index idx, claiming
// (and resetting) the slot if a retired window occupies it. Indices that
// fell out of retention resolve to the scratch window. Callers hold mu.
func (w *Watchdog) slotFor(idx int64) *window {
	n := int64(len(w.win))
	if idx <= w.curIdx-n {
		return &w.scratch
	}
	slot := &w.win[idx%n]
	if slot.idx != idx {
		if slot.idx > idx {
			return &w.scratch
		}
		*slot = window{idx: idx}
	}
	return slot
}

// advance moves the window cursor to now and returns its slot. Callers
// hold mu.
func (w *Watchdog) advance(now sim.Time) *window {
	ns := int64(now)
	if ns > w.lastNs {
		w.lastNs = ns
	}
	idx := ns / w.cfg.WindowNs
	if idx > w.curIdx {
		w.curIdx = idx
	}
	return w.slotFor(idx)
}

// tenant returns the accumulator for id, creating it on first use.
// Callers hold mu.
func (w *Watchdog) tenant(id pkt.TenantID) *tenantState {
	t := w.tenants[id]
	if t == nil {
		t = &tenantState{}
		w.tenants[id] = t
	}
	return t
}

// getCopy returns a watchdog-owned packet to copy a sampled packet into.
// Callers hold mu.
func (w *Watchdog) getCopy() *pkt.Packet {
	if n := len(w.free); n > 0 {
		cp := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return cp
	}
	return &pkt.Packet{}
}

// putCopy recycles a watchdog-owned copy. Callers hold mu.
func (w *Watchdog) putCopy(cp *pkt.Packet) {
	w.free = append(w.free, cp)
}

// OnDeliver records a sampled end-to-end delivery (per-tenant achieved
// throughput). Called by the simulator when a host consumes a packet.
func (w *Watchdog) OnDeliver(now sim.Time, p *pkt.Packet) {
	if !w.Samples(p) {
		return
	}
	w.mu.Lock()
	w.advance(now)
	t := w.tenant(p.Tenant)
	t.deliveredB += uint64(p.Size)
	t.deliveredP++
	w.sampledDeliver++
	w.rev++
	w.mu.Unlock()
}

// OnDrop records a sampled drop that happened outside any port scheduler
// (host-side admission control, for example), where no shadow queue
// exists to judge divergence: it books the tenant drop only.
func (w *Watchdog) OnDrop(now sim.Time, p *pkt.Packet, cause sched.DropCause) {
	if !w.Samples(p) {
		return
	}
	w.mu.Lock()
	w.advance(now)
	w.bookDrop(p, cause)
	w.mu.Unlock()
}

// bookDrop shares the tenant/drop bookkeeping between watchdog-level and
// port-level drops. Callers hold mu.
func (w *Watchdog) bookDrop(p *pkt.Packet, cause sched.DropCause) {
	w.sampledDrop++
	t := w.tenant(p.Tenant)
	if int(cause) < len(t.drops) {
		t.drops[cause]++
	}
	w.rev++
}

// PortWatch mirrors one port's scheduler into a bounded shadow oracle.
// A nil *PortWatch is a no-op on every method.
type PortWatch struct {
	w      *Watchdog
	shadow *conform.RefPIFO
}

// PortWatch hands out a per-port mirror. Returns nil from a nil
// watchdog, so ports can hold and call the result unconditionally.
func (w *Watchdog) PortWatch() *PortWatch {
	if w == nil {
		return nil
	}
	pw := &PortWatch{w: w}
	w.mu.Lock()
	pw.shadow = conform.NewRefPIFO(w.cfg.ShadowCapacityBytes,
		func(p *pkt.Packet, _ sched.DropCause) {
			// Shadow-internal eviction under the byte bound: the copy
			// retires to the freelist. mu is held — shadow operations
			// only happen inside the hooks below.
			w.putCopy(p)
		})
	w.ports = append(w.ports, pw)
	w.mu.Unlock()
	return pw
}

// ShadowPackets sums the shadow-queue occupancy over every port watch —
// zero after a fully drained run, because every mirrored packet retires
// at its dequeue or drop. A persistent nonzero residue after drain means
// a backend dropped packets without its drop callback (a leak the
// bounded shadow then caps). Absorbed children count too.
func (w *Watchdog) ShadowPackets() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	t := 0
	for _, pw := range w.ports {
		t += pw.shadow.Len()
	}
	return t
}

// OnEnqueue mirrors a successfully enqueued packet into the shadow. Must
// be called only after the real scheduler accepted the packet. It also
// stamps p.EnqueuedAt (as the simulator's port does; direct callers have
// none) so OnDequeue can measure sojourn without a lookup table.
func (pw *PortWatch) OnEnqueue(now sim.Time, p *pkt.Packet) {
	if pw == nil || !pw.w.Samples(p) {
		return
	}
	w := pw.w
	w.mu.Lock()
	p.EnqueuedAt = now
	cp := w.getCopy()
	*cp = *p
	pw.shadow.Enqueue(cp)
	win := w.advance(now)
	win.arr++
	w.sampledEnq++
	w.rev++
	w.mu.Unlock()
}

// OnDequeue judges a sampled dequeue against the shadow's ideal head: a
// strictly lower shadow rank is an inversion, and its rank displacement
// (dequeued rank minus ideal rank) feeds the displacement histogram. It
// also books the per-tenant queueing delay.
func (pw *PortWatch) OnDequeue(now sim.Time, p *pkt.Packet) {
	if pw == nil || !pw.w.Samples(p) {
		return
	}
	w := pw.w
	w.mu.Lock()
	win := w.advance(now)
	win.deq++
	w.sampledDeq++
	if min, ok := pw.shadow.MinRank(); ok && min < p.Rank {
		d := p.Rank - min
		win.inv++
		w.inversions++
		w.dispBuckets[obs.BucketIndex(d)]++
		w.dispSum += d
		w.dispCount++
		if d > w.maxDisp {
			w.maxDisp = d
		}
	}
	if cp, ok := pw.shadow.RemoveByID(p.ID); ok {
		w.putCopy(cp)
	}
	delay := int64(now - p.EnqueuedAt)
	if delay < 0 {
		delay = 0
	}
	t := w.tenant(p.Tenant)
	t.delayBuckets[obs.BucketIndex(delay)]++
	t.delaySum += delay
	t.delayCount++
	if delay > w.cfg.DelayBudgetNs {
		win.slow++
		w.slowDeq++
	}
	w.rev++
	w.mu.Unlock()
}

// OnDrop judges a sampled drop (tail drop, eviction, admission reject,
// or injected fault) against the shadow: the ideal PIFO always sheds the
// worst-ranked packet, so dropping p while a strictly worse packet stays
// queued is divergence. The shadow copy of p, if queued, retires.
func (pw *PortWatch) OnDrop(now sim.Time, p *pkt.Packet, cause sched.DropCause) {
	if pw == nil || !pw.w.Samples(p) {
		return
	}
	w := pw.w
	w.mu.Lock()
	win := w.advance(now)
	if worst, ok := pw.shadow.MaxRank(); ok && worst > p.Rank {
		win.div++
		w.dropDiverged++
	}
	if cp, ok := pw.shadow.RemoveByID(p.ID); ok {
		w.putCopy(cp)
	}
	w.bookDrop(p, cause)
	w.mu.Unlock()
}

// ShadowLen returns the current shadow queue depth (tests only).
func (pw *PortWatch) ShadowLen() int {
	if pw == nil {
		return 0
	}
	pw.w.mu.Lock()
	defer pw.w.mu.Unlock()
	return pw.shadow.Len()
}

// tenantName renders a tenant ID for snapshots.
func (w *Watchdog) tenantName(id pkt.TenantID) string {
	if name, ok := w.cfg.Tenants[id]; ok {
		return name
	}
	if id == pkt.NoTenant {
		return "untagged"
	}
	return "tenant" + strconv.Itoa(int(id))
}
