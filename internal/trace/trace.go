// Package trace is the packet-lifecycle flight recorder: it captures
// per-packet events across the whole pipeline — host emit → port queue →
// switch arrival → rank transform → scheduler enqueue/dequeue → deliver
// or drop — into a fixed-size ring buffer and/or a JSON-lines stream,
// with flow-consistent sampling and a per-kind filter.
//
// The recorder is designed for an always-on deployment: when a packet's
// flow is not sampled, Record costs one modulo and returns without
// allocating (the simulator asks Samples once per packet and does not even
// call it), so the data plane's zero-allocation budget holds with a
// recorder attached. Ring recording is also allocation-free (events are
// value copies into a preallocated ring); only the optional JSONL stream
// pays encoding costs.
package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

// Lifecycle event kinds, in pipeline order. A packet's span is the
// ordered sequence of its events: one emit, then per switch hop an
// arrive (and, at the first switch with QVISOR deployed, a transform),
// per port an enqueue and a dequeue, and finally one deliver or one
// drop. Drops carry a cause (sched.DropCause names, plus "fault" for
// network-level losses); packets with neither deliver nor drop when the
// trace ends are in-flight losses, attributed by the analyzers.
const (
	KindEmit      = "emit"      // host handed the packet to its uplink
	KindArrive    = "arrive"    // packet reached a switch ingress
	KindTransform = "transform" // pre-processor rewrote the rank (PreRank → Rank)
	KindEnqueue   = "enqueue"   // port scheduler accepted the packet
	KindDequeue   = "dequeue"   // port scheduler released it for transmission
	KindDeliver   = "deliver"   // destination host consumed the packet
	KindDrop      = "drop"      // packet left the pipeline; Cause says why
)

// CauseInFlight is the analyzer-assigned drop cause for packets that
// were emitted but neither delivered nor dropped by the time the trace
// ended. No Record call ever reports it.
const CauseInFlight = "in-flight-loss"

// Event is one recorded packet event.
type Event struct {
	// TimeNs is the simulated time in nanoseconds.
	TimeNs int64 `json:"t"`
	// Kind is the event type (see the Kind* constants).
	Kind string `json:"kind"`
	// Where locates the event ("host3", "leaf0→spine1").
	Where string `json:"where,omitempty"`
	// Packet identity and labels.
	ID      uint64 `json:"id"`
	Flow    uint64 `json:"flow"`
	Tenant  uint16 `json:"tenant"`
	Rank    int64  `json:"rank"`
	Size    int    `json:"size"`
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	PktKind string `json:"pkt_kind"`
	Retx    bool   `json:"retx,omitempty"`
	// Cause classifies drop events ("overflow", "evicted", "admission",
	// "fault"); empty on every other kind.
	Cause string `json:"cause,omitempty"`
	// PreRank is the rank before a transform event rewrote it (Rank
	// holds the post-transform rank). Zero on every other kind.
	PreRank int64 `json:"pre_rank,omitempty"`
	// Epoch is the policy generation the packet is pinned to, when the
	// sim runs with an epoch store (zero otherwise).
	Epoch uint64 `json:"epoch,omitempty"`
	// Shard is the simulation shard that recorded the event (zero in a
	// single-threaded run). Merged sharded traces sort by (TimeNs, Shard)
	// so same-nanosecond events keep a stable global order.
	Shard int `json:"shard,omitempty"`
}

// Options tune what gets recorded.
type Options struct {
	// FlowSample records only flows whose ID satisfies
	// flow % FlowSample == 0 — flow-consistent 1-in-N sampling: every
	// event of a sampled flow is recorded, no event of an unsampled one.
	// Zero or one records every flow.
	FlowSample uint64
	// Kinds restricts recording to the listed event kinds (nil = all).
	Kinds []string
	// RingSize is the capacity of the in-memory event ring. Recording
	// wraps, keeping the most recent RingSize events. Zero disables the
	// ring for stream recorders and means DefaultRingSize for
	// NewFlightRecorder.
	RingSize int
}

// DefaultRingSize is the flight-recorder ring capacity when Options
// leaves RingSize zero: 64Ki events, ~10 MB resident.
const DefaultRingSize = 1 << 16

// Recorder captures events into an optional fixed-size ring and an
// optional JSON-lines stream. All methods are nil-safe no-ops. Safe for
// use from a single simulation goroutine plus concurrent Snapshot
// readers (the control-plane trace endpoint).
type Recorder struct {
	opts Options
	// On the children Shard forks: shard is stamped on every event, and
	// log makes the ring an append-only log that keeps every event.
	shard int
	log   bool

	mu   sync.Mutex
	enc  *json.Encoder
	ring []Event
	seq  uint64 // total events recorded; ring cursor and snapshot ETag
}

// NewRecorder writes events to w as JSON lines. A ring is kept as well
// when opts.RingSize > 0.
func NewRecorder(w io.Writer, opts Options) *Recorder {
	r := newRecorder(opts)
	r.enc = json.NewEncoder(w)
	return r
}

// NewFlightRecorder records into a fixed-size ring only (no stream):
// the always-on, allocation-free configuration served by GET /v1/trace.
func NewFlightRecorder(opts Options) *Recorder {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	return newRecorder(opts)
}

func newRecorder(opts Options) *Recorder {
	r := &Recorder{opts: opts}
	if opts.RingSize > 0 {
		r.ring = make([]Event, opts.RingSize)
	}
	return r
}

// Shard forks the recorder that shard i of a sharded run records into: the
// parent's filters, i stamped on every event, and the parent's memory — a
// ring of its size when the parent is a flight ring, a log of everything
// when it streams (a stream keeps every event; a child that forgot some
// would silently truncate it). Absorb merges the children back after the
// run, the lifecycle of slo.Watchdog's Shard and Absorb. Nil forks nil.
func (r *Recorder) Shard(i int) *Recorder {
	if r == nil {
		return nil
	}
	c := &Recorder{opts: r.opts, shard: i, log: r.enc != nil}
	if !c.log {
		c.ring = make([]Event, len(r.ring))
	}
	return c
}

// Absorb commits the events of quiescent children to r, merged by (time,
// shard) with a stable sort, so one shard's same-nanosecond events keep
// their order. The children applied r's filters; events pass verbatim.
func (r *Recorder) Absorb(children ...*Recorder) {
	if r == nil {
		return
	}
	var events []Event
	for _, c := range children {
		evs, _ := c.Snapshot(AllEvents)
		events = append(events, evs...)
	}
	slices.SortStableFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.TimeNs, b.TimeNs), cmp.Compare(a.Shard, b.Shard))
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range events {
		r.put(e)
	}
}

// Count returns the number of events recorded (not the number still in
// the ring; the ring keeps the most recent RingSize of them).
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Samples reports whether p's flow is in the recorder's flow sample: the
// whole record-side decision about a packet, the same for every event of
// its life (the simulator asks once). A nil recorder samples nothing.
func (r *Recorder) Samples(p *pkt.Packet) bool {
	return r != nil && (r.opts.FlowSample <= 1 || p.Flow%r.opts.FlowSample == 0)
}

// Record writes one event if it passes the filters.
func (r *Recorder) Record(now sim.Time, kind, where string, p *pkt.Packet) {
	r.record(now, kind, where, p, "", 0)
}

// RecordDrop writes a drop event carrying its cause (a sched.DropCause
// name, or "fault" for network-level losses).
func (r *Recorder) RecordDrop(now sim.Time, where string, p *pkt.Packet, cause string) {
	r.record(now, KindDrop, where, p, cause, 0)
}

// RecordTransform writes a transform event: preRank is the rank before
// the pre-processor ran; p.Rank is the rewritten rank.
func (r *Recorder) RecordTransform(now sim.Time, where string, p *pkt.Packet, preRank int64) {
	r.record(now, KindTransform, where, p, "", preRank)
}

// record is the one body under the three Record signatures. It filters
// for itself, so a packet nobody stamped is recorded all the same.
func (r *Recorder) record(now sim.Time, kind, where string, p *pkt.Packet, cause string, preRank int64) {
	if !r.Samples(p) || (r.opts.Kinds != nil && !slices.Contains(r.opts.Kinds, kind)) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(Event{
		TimeNs:  int64(now),
		Kind:    kind,
		Where:   where,
		ID:      p.ID,
		Flow:    p.Flow,
		Tenant:  uint16(p.Tenant),
		Rank:    p.Rank,
		Size:    p.Size,
		Src:     p.Src,
		Dst:     p.Dst,
		PktKind: p.Kind.String(),
		Retx:    p.Retx,
		Cause:   cause,
		PreRank: preRank,
		Epoch:   p.Epoch,
		Shard:   r.shard,
	})
}

// put commits e. Callers hold mu.
func (r *Recorder) put(e Event) {
	switch {
	case r.log:
		r.ring = append(r.ring, e)
	case r.ring != nil:
		r.ring[r.seq%uint64(len(r.ring))] = e
	}
	if r.enc != nil {
		_ = r.enc.Encode(e)
	}
	r.seq++
}

// Filter selects events from a ring snapshot.
type Filter struct {
	// Tenant keeps only this tenant's events when >= 0; negative keeps
	// all tenants.
	Tenant int
	// Kinds keeps only the listed kinds (nil = all).
	Kinds []string
	// Limit keeps only the most recent Limit matching events when > 0.
	Limit int
}

// AllEvents matches every event in the ring.
var AllEvents = Filter{Tenant: -1}

// Snapshot copies the ring's events, oldest first, applying the filter.
// The returned sequence number counts all events ever recorded — it
// advances on every Record, so equal sequence numbers imply identical
// snapshots (the control plane uses it as an ETag). A recorder without
// a ring returns no events.
func (r *Recorder) Snapshot(f Filter) (events []Event, seq uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ring == nil {
		return nil, r.seq
	}
	n := uint64(len(r.ring))
	start := uint64(0)
	count := r.seq
	if count > n {
		start = r.seq - n
		count = n
	}
	for i := uint64(0); i < count; i++ {
		e := r.ring[(start+i)%n]
		if f.Tenant >= 0 && int(e.Tenant) != f.Tenant {
			continue
		}
		if f.Kinds != nil && !slices.Contains(f.Kinds, e.Kind) {
			continue
		}
		events = append(events, e)
	}
	if f.Limit > 0 && len(events) > f.Limit {
		events = events[len(events)-f.Limit:]
	}
	return events, r.seq
}

// ReadEvents parses a JSON-lines trace into memory. Malformed lines are
// an error.
func ReadEvents(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", len(events)+1, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
