// Package sched implements the packet schedulers QVISOR targets: the ideal
// PIFO queue the paper assumes as the tenant-facing abstraction (§2, §3),
// and the "existing schedulers" of §3.4 — FIFO queues, banks of
// strict-priority FIFO queues, and published PIFO approximations that run on
// commodity switches (SP-PIFO, AIFO, calendar queues).
//
// All schedulers share the Scheduler interface: Enqueue offers a packet
// (which may be dropped), Dequeue returns the next packet to transmit.
// Lower rank means higher priority throughout.
//
// The FIFO family is one structure and six placement rules. The unexported
// bank (bank.go) is n pkt.Ring queues with byte and packet accounting,
// counters, and a pop of the first backlogged queue at or after an index;
// FIFO, MQ, SP-PIFO, Admission and Calendar embed it and keep only what
// their rule owns — a mapper, adaptive bounds, a rank window, a rotation
// cursor — and AIFO is Admission over a bank of one queue. PIFO (an
// internal/pq heap), BucketQ (bitmap-indexed chains with an overflow FIFO)
// and DRR (per-key rings with deficits) are different structures and stay
// apart.
// Calendar is deliberately not a BucketQ configuration: the two agree event
// for event inside the rank horizon, but beyond it the calendar clamps to
// its last bucket while the bucket queue parks and re-files packets, and
// host NIC ports do enqueue raw tenant ranks out there (DESIGN.md has the
// measurement).
package sched

import (
	"fmt"

	"qvisor/internal/pkt"
)

// Scheduler is an egress queueing discipline for one output port.
//
// Implementations are not safe for concurrent use; the simulator is
// single-threaded per the discrete-event engine.
//
// # Packet ownership
//
// Packets may come from a pkt.Pool, so exactly one party must release each
// one. The contract every implementation follows:
//
//   - Enqueue(p) == true: the scheduler owns p until it hands it back —
//     either from Dequeue (ownership returns to the caller) or through the
//     configured drop callback when p is evicted to admit a better packet.
//   - Enqueue(p) == false: p was refused. The scheduler invokes the drop
//     callback with p before returning; by convention the drop callback is
//     the single release point for refused and evicted packets, so the
//     enqueueing caller must NOT release p again on a false return.
//   - From an accepting Enqueue until p leaves the scheduler (Dequeue,
//     eviction or Reset), p.Rank must not change: a scheduler may file p
//     by the rank it had at Enqueue (PIFO keys its heap with it), so a
//     re-rank in place would leave p out of order. A caller that wants a
//     new rank dequeues p and enqueues it again.
//   - Dequeue: the returned packet belongs to the caller.
//   - Reset: discards queued packets without invoking the drop callback.
//     Callers that pool packets must drain the scheduler first (or reset
//     the pool alongside), otherwise the queued packets leak from the
//     pool's accounting.
//
// Schedulers never retain a packet after handing it out and never release
// packets to a pool themselves — release policy belongs to the layer that
// acquired the packet (see internal/netsim).
//
// # Policy epochs
//
// Schedulers are epoch-oblivious by design. When the control plane swaps
// in a new policy generation (core.EpochStore), packets already queued
// keep the ranks their start epoch assigned — nothing re-ranks or flushes
// a queue on a policy change. A queued packet therefore drains under its
// old epoch's ordering while newly arriving packets carry the new
// epoch's ranks; both epochs map into the same shared output rank space,
// so interleaving them in one queue is well-defined. The packet's Epoch
// label exists for conformance checking (internal/conform), not for
// scheduling decisions.
type Scheduler interface {
	// Enqueue offers p to the scheduler. It returns false when p was
	// dropped (buffer overflow or admission control). The scheduler may
	// instead evict an already-queued packet; evictions are reported via
	// the drop callback, not the return value.
	Enqueue(p *pkt.Packet) bool
	// Dequeue removes and returns the next packet, or nil when empty.
	Dequeue() *pkt.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued bytes.
	Bytes() int
	// Name returns a short identifier for logs and experiment output.
	Name() string
	// Reset empties the scheduler and zeroes its counters while keeping
	// internal buffers (rings, heap slices, node free lists) warm, so one
	// scheduler instance can be reused across simulation trials without
	// reallocating. See the ownership notes above for queued packets.
	Reset()
}

// DropCause classifies why a packet left the pipeline without being
// delivered. Every drop site — scheduler disciplines, the pifotree
// backend, fault injectors, and the network layer — reports exactly one
// cause, so traces and counters can attribute loss to a pipeline stage
// instead of a single undifferentiated "dropped" count.
type DropCause uint8

const (
	// CauseOverflow is a tail drop: the arrival did not fit in the
	// buffer and nothing queued was worth evicting for it.
	CauseOverflow DropCause = iota
	// CauseEvicted marks an already-queued packet removed to admit a
	// better-ranked arrival (PIFO drop-worst).
	CauseEvicted
	// CauseAdmission is an admission-control rejection decided by the
	// packet's rank rather than by buffer occupancy alone (AIFO's
	// quantile gate, preprocessor drop actions).
	CauseAdmission
	// CauseFault is an injected or structural failure: fault-injector
	// loss, unroutable destinations.
	CauseFault
	// causeMax bounds the enum for per-cause counter arrays.
	causeMax
)

// NumDropCauses is the number of distinct drop causes, for sizing
// per-cause counter arrays.
const NumDropCauses = int(causeMax)

// String returns the stable wire name used in traces, counters, and
// reports. A fifth cause, "in-flight-loss", exists only in trace
// analysis: it labels packets that were emitted but neither delivered
// nor dropped by the time a trace ended, so no callback ever reports it.
func (c DropCause) String() string {
	switch c {
	case CauseOverflow:
		return "overflow"
	case CauseEvicted:
		return "evicted"
	case CauseAdmission:
		return "admission"
	case CauseFault:
		return "fault"
	}
	return "unknown"
}

// DropFn observes packets dropped by a scheduler (on arrival or by
// eviction) together with the cause. It may be nil.
//
// Cause contract: disciplines report CauseOverflow for arrivals refused
// for lack of buffer space, CauseEvicted for queued packets removed to
// admit a better arrival, and CauseAdmission for rank-based rejections
// that would have been refused even with buffer available. Exactly one
// callback fires per dropped packet; the callback is the packet's
// release point (see Scheduler's ownership contract).
type DropFn func(p *pkt.Packet, cause DropCause)

// Stats counts scheduler activity, shared by all implementations.
type Stats struct {
	Enqueued  uint64 // packets accepted
	Dequeued  uint64 // packets transmitted
	Dropped   uint64 // packets rejected on arrival
	Evicted   uint64 // queued packets removed to admit better ones
	Inversion uint64 // dequeues that violated global rank order (approximations)
}

// String summarizes the counters.
func (s Stats) String() string {
	return fmt.Sprintf("enq=%d deq=%d drop=%d evict=%d inv=%d",
		s.Enqueued, s.Dequeued, s.Dropped, s.Evicted, s.Inversion)
}

// Config carries the knobs common to every scheduler.
type Config struct {
	// CapacityBytes bounds the total queued bytes. Zero means a default of
	// DefaultCapacityBytes.
	CapacityBytes int
	// OnDrop, if non-nil, is invoked for every dropped or evicted packet
	// with the cause of the drop (see DropFn's cause contract).
	OnDrop DropFn
}

// DefaultCapacityBytes is the per-port buffer used when Config.CapacityBytes
// is zero: roughly 100 full-size packets, a typical shallow-buffer setting
// in pFabric-style evaluations.
const DefaultCapacityBytes = 150 * 1000

func (c Config) capacity() int {
	if c.CapacityBytes <= 0 {
		return DefaultCapacityBytes
	}
	return c.CapacityBytes
}

func (c Config) drop(p *pkt.Packet, cause DropCause) {
	if c.OnDrop != nil {
		c.OnDrop(p, cause)
	}
}

// refuse counts p as dropped on arrival in st and hands it to c's drop
// callback; it returns false so an Enqueue can return the refusal directly.
func refuse(st *Stats, c Config, p *pkt.Packet, cause DropCause) bool {
	st.Dropped++
	c.drop(p, cause)
	return false
}
