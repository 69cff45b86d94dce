package conform

import (
	"fmt"
	"sort"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
	"qvisor/internal/trace"
)

// maxOccupancy bounds the replay backlog (the sweeps' and the inversion
// study's) so inversion rates reflect realistic queue depths.
const maxOccupancy = 64

// replayEvent is one observable scheduler action: 'd' = drop/evict,
// 'q' = dequeue. Drop events also carry the reported cause, so exact
// backends must agree with the oracle on why a packet was dropped
// (overflow vs. eviction), not just which packet left.
type replayEvent struct {
	kind  byte
	id    uint64
	cause sched.DropCause // meaningful only when kind == 'd'
}

// replayResult captures everything observable about one backend's replay
// of a scenario trace.
type replayResult struct {
	// accepted holds value copies of accepted arrivals, arrival order.
	accepted []pkt.Packet
	// dequeued holds value copies in dequeue order.
	dequeued []pkt.Packet
	// drops holds dropped/evicted packet IDs in callback order.
	drops []uint64
	// events interleaves drops and dequeues in observation order.
	events []replayEvent
	// inv counts rank inversions (nil when counting was disabled).
	inv *trace.InversionCounter
	// stepViolation is the first invariant breach reported by the step
	// hook ("" = none).
	stepViolation string
}

// replay feeds the scenario trace through a scheduler built by build at
// the given buffer capacity, using the scenario's service pattern. Packets
// are pooled copies; the drop callback is the single release point for
// refused/evicted packets and the dequeue loop for serviced ones, so a
// non-zero outstanding count at the end is a conservation bug. countInv
// must be false when the scheduler can evict accepted packets (the
// inversion model has no eviction hook). step, when non-nil, runs after
// every enqueue and dequeue and reports the first invariant violation it
// sees.
func replay(sc *Scenario, capacity int, countInv bool, build buildFn, step func(sched.Scheduler) string) (*replayResult, error) {
	pool := pkt.NewPool()
	res := &replayResult{}
	if countInv {
		res.inv = trace.NewInversionCounter()
	}
	drop := func(p *pkt.Packet, cause sched.DropCause) {
		res.drops = append(res.drops, p.ID)
		res.events = append(res.events, replayEvent{'d', p.ID, cause})
		pool.Put(p)
	}
	s, err := build(sc, sched.Config{CapacityBytes: capacity, OnDrop: drop})
	if err != nil {
		return nil, err
	}
	checkStep := func() {
		if step == nil || res.stepViolation != "" {
			return
		}
		res.stepViolation = step(s)
	}
	for i := range sc.Trace {
		cp := pool.Get()
		*cp = sc.Trace[i]
		if s.Enqueue(cp) {
			res.accepted = append(res.accepted, sc.Trace[i])
			if res.inv != nil {
				res.inv.OnEnqueue(sc.Trace[i].Rank)
			}
		}
		checkStep()
		for serveOne := sc.Serve[i] || s.Len() > maxOccupancy; serveOne; serveOne = s.Len() > maxOccupancy {
			got := s.Dequeue()
			if got == nil {
				break
			}
			if res.inv != nil {
				res.inv.OnDequeue(got.Rank)
			}
			res.dequeued = append(res.dequeued, *got)
			res.events = append(res.events, replayEvent{kind: 'q', id: got.ID})
			pool.Put(got)
			checkStep()
		}
	}
	for got := s.Dequeue(); got != nil; got = s.Dequeue() {
		if res.inv != nil {
			res.inv.OnDequeue(got.Rank)
		}
		res.dequeued = append(res.dequeued, *got)
		res.events = append(res.events, replayEvent{kind: 'q', id: got.ID})
		pool.Put(got)
		checkStep()
	}
	if n := pool.Outstanding(); n != 0 {
		return nil, fmt.Errorf("%s leaked %d packets", s.Name(), n)
	}
	return res, nil
}

// ReplayInversions replays sc's trace through the scheduler the sched.New
// spec names, at the given buffer capacity, under sc's service pattern and
// the sweeps' occupancy cap, and returns its dequeues, the rank inversions
// among them, and its drops. Only sc.Trace and sc.Serve are read. The
// scheduler must not evict accepted packets.
func ReplayInversions(sc *Scenario, spec string, capacity int) (dequeues, inversions, drops int, err error) {
	build := func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) { return sched.New(spec, cfg) }
	res, err := replay(sc, capacity, true, build, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.inv.Dequeues, res.inv.Inversions, len(res.drops), nil
}

// queueBounds is the view of SP-PIFO and the admission backend that
// monotoneBounds reads.
type queueBounds interface {
	NumQueues() int
	Bound(i int) int64
}

// monotoneBounds is the step of a target with a monotone kind: its queue
// bounds must be non-decreasing from the highest-priority queue.
func monotoneBounds(s sched.Scheduler) string {
	q := s.(queueBounds)
	for i := 0; i+1 < q.NumQueues(); i++ {
		if q.Bound(i) > q.Bound(i+1) {
			return violationf("bounds not monotone: q%d=%d > q%d=%d",
				i, q.Bound(i), i+1, q.Bound(i+1))
		}
	}
	return ""
}

// runDifferential replays the scenario through every selected target and
// holds each to its contract. The reference oracle's replays are shared
// across targets, one per buffer capacity.
func runDifferential(r *Report, sc *Scenario, selected []*target) {
	oracles := make(map[int]*replayResult)
	for i, t := range selected {
		capacity := hugeCapacity
		if t.capacity != 0 {
			capacity = t.capacity
		}
		var step func(sched.Scheduler) string
		if t.monotone != "" {
			step = monotoneBounds
		}
		v := &verdict{r: r, sc: sc, t: t, capacity: capacity, oracles: oracles}
		v.res, v.err = replay(sc, capacity, t.capacity == 0, t.build, step)
		if v.err == nil {
			accumulate(&r.Backends[i], v.res)
			if v.res.stepViolation != "" {
				v.fail(t.monotone, "%s", v.res.stepViolation)
			}
			for _, c := range t.contract {
				if !c(v) {
					break
				}
			}
		}
		if v.err != nil {
			v.fail(ViolationConservation, "%s", v.err)
		}
	}
}

// verdict is one target's differential replay of one scenario, handed to
// each check of its contract.
type verdict struct {
	r        *Report
	sc       *Scenario
	t        *target
	capacity int
	res      *replayResult
	oracles  map[int]*replayResult
	// err is a replay failure (a leak or a build error), reported as a
	// conservation violation once the contract stops.
	err error
}

func (v *verdict) fail(kind ViolationKind, format string, args ...any) {
	v.r.addViolation(Violation{
		Scenario: v.sc.Index, Backend: v.t.name, Kind: kind,
		Detail: violationf(format, args...),
	})
}

// oracle returns the reference PIFO's replay at the target's capacity, or
// nil after recording its failure in v.err.
func (v *verdict) oracle() *replayResult {
	if res, ok := v.oracles[v.capacity]; ok {
		return res
	}
	res, err := replay(v.sc, v.capacity, false, refPIFO, nil)
	if err != nil {
		v.err = err
		return nil
	}
	v.oracles[v.capacity] = res
	return res
}

// accumulate folds a replay into the backend's aggregate statistics.
func accumulate(st *BackendStats, res *replayResult) {
	st.Enqueued += len(res.accepted)
	st.Dequeued += len(res.dequeued)
	st.Dropped += len(res.drops)
	if res.inv != nil {
		st.Inversions += res.inv.Inversions
		if res.inv.MaxMagnitude > st.MaxInversionMagnitude {
			st.MaxInversionMagnitude = res.inv.MaxMagnitude
		}
	}
}

// check is one clause of a target's contract. It returns false when the
// remaining clauses cannot be judged.
type check func(v *verdict) bool

// conserved verifies the accepted and dequeued ID multisets match: no
// packet lost, duplicated, or invented.
func conserved(v *verdict) bool {
	res := v.res
	if len(res.accepted)+len(res.drops) != len(v.sc.Trace) {
		v.fail(ViolationConservation, "%d accepted + %d dropped != %d offered",
			len(res.accepted), len(res.drops), len(v.sc.Trace))
		return false
	}
	if len(res.dequeued) != len(res.accepted) {
		v.fail(ViolationConservation, "accepted %d packets, dequeued %d", len(res.accepted), len(res.dequeued))
		return false
	}
	a := make([]uint64, len(res.accepted))
	d := make([]uint64, len(res.dequeued))
	for i := range res.accepted {
		a[i] = res.accepted[i].ID
		d[i] = res.dequeued[i].ID
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	for i := range a {
		if a[i] != d[i] {
			v.fail(ViolationConservation, "accepted/dequeued ID multisets differ at sorted index %d: %d vs %d", i, a[i], d[i])
			return false
		}
	}
	return true
}

// sameOrder requires the dequeue ID sequence to equal the oracle's.
func sameOrder(v *verdict) bool {
	oracle := v.oracle()
	if oracle == nil {
		return false
	}
	got := v.res
	if len(got.dequeued) != len(oracle.dequeued) {
		v.fail(ViolationExactOrder, "dequeued %d packets, oracle %d", len(got.dequeued), len(oracle.dequeued))
		return true
	}
	for i := range got.dequeued {
		g, w := got.dequeued[i], oracle.dequeued[i]
		if g.ID != w.ID {
			v.fail(ViolationExactOrder, "dequeue %d: packet %d (rank %d), oracle %d (rank %d)",
				i, g.ID, g.Rank, w.ID, w.Rank)
			return true
		}
	}
	return true
}

// noInversions holds the ideal PIFO to zero rank inversions.
func noInversions(v *verdict) bool {
	if v.res.inv != nil && v.res.inv.Inversions != 0 {
		v.fail(ViolationInversionBound, "ideal PIFO produced %d inversions", v.res.inv.Inversions)
	}
	return true
}

// sameEvents requires the full observable event stream — every drop,
// eviction, and dequeue, in order, with its cause — to match the oracle's.
func sameEvents(v *verdict) bool {
	oracle := v.oracle()
	if oracle == nil {
		return false
	}
	if len(v.res.events) != len(oracle.events) {
		v.fail(ViolationDropMismatch, "%d events, oracle %d", len(v.res.events), len(oracle.events))
		return true
	}
	for i := range v.res.events {
		g, w := v.res.events[i], oracle.events[i]
		if g != w {
			v.fail(ViolationDropMismatch, "event %d: %c(%d,%v), oracle %c(%d,%v)",
				i, g.kind, g.id, g.cause, w.kind, w.id, w.cause)
			return true
		}
	}
	return true
}

// arrivalOrder requires dequeues to preserve accepted arrival order (plain
// FIFO semantics).
func arrivalOrder(v *verdict) bool {
	res := v.res
	n := min(len(res.dequeued), len(res.accepted))
	for i := 0; i < n; i++ {
		if res.dequeued[i].ID != res.accepted[i].ID {
			v.fail(ViolationArrivalOrder, "dequeue %d: packet %d, arrival order expects %d",
				i, res.dequeued[i].ID, res.accepted[i].ID)
			break
		}
	}
	return true
}

// noDrops flags any drop: with no buffer pressure an admission-controlled
// backend's admission test always passes.
func noDrops(v *verdict) bool {
	if n := len(v.res.drops); n != 0 {
		v.fail(ViolationAdmission, "%s dropped %d packets with no buffer pressure", v.t.name, n)
	}
	return true
}

// strictPriority checks the static queue mapping against a strict-priority
// multi-queue model rebuilt from the deployment's published ranges: every
// dequeue must come from the lowest-index backlogged queue and preserve
// FIFO order within it.
func strictPriority(v *verdict) bool {
	dep, err := deploy(v.sc, core.BackendSPQueues, sched.Config{})
	if err != nil {
		v.err = err
		return false
	}
	// Rebuild the rank→queue mapping from the published ranges, exactly
	// as the deployment's mapper does.
	bounds := make([]int64, len(dep.Ranges))
	for i, qr := range dep.Ranges {
		bounds[i] = qr.Hi
	}
	queueOf := func(rank int64) int {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= rank })
		if i == len(bounds) {
			i = len(bounds) - 1
		}
		return i
	}
	// Model: per-queue FIFO lists, drained strict-priority. Replaying the
	// accepted arrivals and dequeues against it in lockstep.
	model := make([][]uint64, len(dep.Ranges))
	ai := 0
	for _, q := range v.res.dequeued {
		// Admit arrivals up to (and including) this dequeue's position:
		// arrival i precedes dequeue j iff the packet was accepted before
		// the dequeue happened. Event order gives the interleaving.
		for ai < len(v.res.accepted) && !queuedInModel(model, q.ID) {
			p := v.res.accepted[ai]
			model[queueOf(p.Rank)] = append(model[queueOf(p.Rank)], p.ID)
			ai++
		}
		qi := queueOf(q.Rank)
		// Strict priority: no lower-index queue may be backlogged.
		for i := 0; i < qi; i++ {
			if len(model[i]) > 0 {
				v.fail(ViolationArrivalOrder, "dequeued packet %d from queue %d while queue %d backlogged",
					q.ID, qi, i)
				return true
			}
		}
		if len(model[qi]) == 0 || model[qi][0] != q.ID {
			v.fail(ViolationArrivalOrder, "dequeued packet %d out of FIFO order within queue %d", q.ID, qi)
			return true
		}
		model[qi] = model[qi][1:]
	}
	return true
}

func queuedInModel(model [][]uint64, id uint64) bool {
	for _, q := range model {
		for _, v := range q {
			if v == id {
				return true
			}
		}
	}
	return false
}

// perFlowOrder checks deficit round robin's only rank-free guarantee:
// packets of the same flow leave in arrival order.
func perFlowOrder(v *verdict) bool {
	perFlow := make(map[uint64][]uint64)
	for _, p := range v.res.accepted {
		perFlow[p.Flow] = append(perFlow[p.Flow], p.ID)
	}
	for _, p := range v.res.dequeued {
		q := perFlow[p.Flow]
		if len(q) == 0 || q[0] != p.ID {
			v.fail(ViolationArrivalOrder, "flow %d dequeued packet %d out of per-flow FIFO order", p.Flow, p.ID)
			return true
		}
		perFlow[p.Flow] = q[1:]
	}
	return true
}

// batchDrain builds the target afresh, enqueues the whole trace, then
// drains it: the bucket index floor(rank/width) of successive dequeues
// must never decrease — the quantized schedulers' structural ordering
// theorem. A calendar (quantizedExact false) clamps the index to its
// rotating horizon. A bucket queue is held to more: its contract is exact
// up to quantization, so the index is not clamped (packets past the
// horizon overflow and re-file, preserving the global quantized order) and
// packets of one index must leave in arrival order (per-bucket FIFO
// chains, re-filed in arrival order on rebase).
func batchDrain(kind ViolationKind, buckets int, quantizedExact bool) check {
	return func(v *verdict) bool {
		sc := v.sc
		width := bucketWidth(sc, buckets)
		s, err := v.t.build(sc, sched.Config{CapacityBytes: hugeCapacity})
		if err != nil {
			v.err = err
			return false
		}
		arrival := make(map[uint64]int, len(sc.Trace))
		for i := range sc.Trace {
			p := sc.Trace[i] // local copy; this replay is not pooled
			arrival[p.ID] = i
			s.Enqueue(&p)
		}
		prev, prevArr := -1, -1
		for p := s.Dequeue(); p != nil; p = s.Dequeue() {
			b := 0
			if p.Rank > 0 {
				b = int(p.Rank / width)
			}
			if !quantizedExact {
				b = min(b, buckets-1)
			}
			if b < prev {
				v.fail(kind, "batch drain visited bucket %d after bucket %d (packet %d rank %d)",
					b, prev, p.ID, p.Rank)
				break
			}
			if b > prev {
				prevArr = -1
			}
			if ai := arrival[p.ID]; quantizedExact && ai < prevArr {
				v.fail(kind, "batch drain broke FIFO within bucket %d (packet %d arrived before its predecessor)",
					b, p.ID)
				break
			} else {
				prevArr = ai
			}
			prev = b
		}
		return true
	}
}

// inversionBound holds an approximating backend to the UPS replay
// theorem: the streaming inversion count (dequeues made while a strictly
// lower rank was still queued) never exceeds the pair-inversion count of
// the realized departure order against the ideal rank order — the same
// departures stably sorted by rank. Each streaming inversion at the
// dequeue of packet p witnesses a queued q with rank lower than p's; q
// departs after p yet precedes p in the ideal order, so (p, q) is an
// inverted pair, and distinct dequeues witness distinct pairs.
//
// This replaces the earlier FIFO-relative budget (fifo + max(16, fifo/8)
// slack), which random scenarios genuinely violated — SP-PIFO's queue-
// bound adaptation can locally backfire several-fold past the slack (see
// TestInversionBudgetRegression for pinned examples). The theorem form
// cannot flake: a breach is a bug in the scheduler or the counter, never
// an unlucky trace. The empirical "don't drift far past FIFO" guard that
// the old per-scenario budget aimed at lives on as the aggregate drift
// ceilings of the target table, checked at the end of Run.
func inversionBound(v *verdict) bool {
	res := v.res
	if res.inv == nil {
		return true
	}
	pairInv := pairInversionsVsIdeal(res.dequeued)
	if int64(res.inv.Inversions) > pairInv {
		v.fail(ViolationInversionBound, "%d streaming inversions exceed the %d pair inversions vs ideal rank order",
			res.inv.Inversions, pairInv)
	}
	return true
}

// pairInversionsVsIdeal counts UPS pair inversions of a departure order
// against its own ideal: the same packets stably sorted by rank. Stable
// means equal-rank pairs keep their realized order and are never counted.
func pairInversionsVsIdeal(deq []pkt.Packet) int64 {
	idx := make([]int, len(deq))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return deq[idx[a]].Rank < deq[idx[b]].Rank })
	// pos[i] = position of realized departure i in the ideal order; the
	// realized order read through pos is a permutation whose inversions
	// are exactly the rank-inverted pairs.
	pos := make([]int, len(deq))
	for ideal, orig := range idx {
		pos[orig] = ideal
	}
	return countInversions(pos)
}
