// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the execution substrate for the packet-level network simulator in
// internal/netsim, playing the role that Netbench's event loop plays in the
// QVISOR paper's evaluation. Events are ordered by (time, sequence number),
// so two runs with identical inputs produce identical schedules. Events
// less than one wheel span (≈131 µs) ahead wait in a find-first-set timing
// wheel, later ones in a 4-ary heap; the two tiers are merged at pop by
// the same (time, sequence) order, so the split changes cost, not order.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"qvisor/internal/pq"
)

// Time is simulated time in nanoseconds since the start of the run.
//
// Nanosecond granularity is sufficient for the link speeds the paper uses:
// on a 1 Gbps link one bit lasts exactly 1 ns, and a 1500 B frame 12 µs.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulated time.
const MaxTime = Time(math.MaxInt64)

// Duration converts a simulated time span to a wall-clock time.Duration
// (both are nanosecond counts).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Event is a callback scheduled to run at a point in simulated time.
type Event func(now Time)

// item is a scheduled event in the priority queue. Items are recycled
// through the engine's free list: the gen counter is bumped on every
// recycle so stale Handles (held across a fire or a Reset) can never
// cancel an unrelated reincarnation of their item.
type item struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	fn   Event
	gen  uint64 // recycle generation; Handles must match to act
	next *item  // next item in the same wheel slot
	dead bool
}

// before reports whether the far-tier entry top fires before it: earlier
// time, then lower sequence number. It reads the (at, seq) copy the entry
// holds, not the item behind its pointer.
func before(top *pq.Entry[*item], it *item) bool {
	return top.Key < int64(it.at) || top.Key == int64(it.at) && top.Seq < it.seq
}

// Handle identifies a scheduled event so it can be cancelled. A Handle is
// pinned to one generation of its item, so holding a Handle past the
// event's firing (or past Engine.Reset) is safe: it simply goes inert.
type Handle struct {
	it  *item
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Returns true if the event was
// pending. The callback is released immediately so a cancelled event does
// not pin its captures until the queue drains past it.
func (h Handle) Cancel() bool {
	if h.it == nil || h.it.gen != h.gen || h.it.dead {
		return false
	}
	h.it.dead = true
	h.it.fn = nil
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	return h.it != nil && h.it.gen == h.gen && !h.it.dead
}

// Wheel geometry: wheelSlots slots of 1<<slotShift ns. Slot width and
// count are fixed; see DESIGN.md, "Event engine", for why these values.
const (
	slotShift  = 4    // 16 ns per slot
	wheelSlots = 8192 // one span is 131 072 ns
	wheelMask  = wheelSlots - 1
)

// slotOf is the absolute slot number of time t.
func slotOf(t Time) int64 { return int64(t >> slotShift) }

// wheelSlot is one slot's chain of items, sorted by (at, seq).
type wheelSlot struct{ head, tail *item }

// wheel is the near tier: a timing wheel whose occupied slots are found
// with a two-level find-first-set bitmap, as in Eiffel's cFFS queues.
// The engine only admits an item whose absolute slot lies in [base,
// base+wheelSlots), so a wheel position never holds items of two laps and
// the first occupied position at or after base's is the earliest slot.
type wheel struct {
	n       int                          // items queued, cancelled ones included
	summary [wheelSlots / 64 / 64]uint64 // bit w: words[w] != 0
	words   [wheelSlots / 64]uint64      // bit p%64 of words[p/64]: slot p occupied
	slots   [wheelSlots]wheelSlot
}

// insert adds it to slot pos. The item carries the highest sequence number
// yet, so it goes behind every item with the same or an earlier time.
func (w *wheel) insert(pos int, it *item) {
	w.n++
	s := &w.slots[pos]
	switch {
	case s.tail == nil:
		it.next = nil
		s.head, s.tail = it, it
		w.words[pos>>6] |= 1 << (pos & 63)
		w.summary[pos>>12] |= 1 << (pos >> 6 & 63)
	case s.tail.at <= it.at:
		it.next = nil
		s.tail.next, s.tail = it, it
	default:
		p := &s.head
		for (*p).at <= it.at {
			p = &(*p).next
		}
		it.next, *p = *p, it
	}
}

// first returns the first occupied slot at or cyclically after from. The
// wheel must not be empty.
func (w *wheel) first(from int) int {
	i := from >> 6
	if b := w.words[i] >> (from & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	// The next non-empty word after i, wrapping around: the summary words
	// from i+1's on, then all of them again, so word i itself comes last
	// (its bits below from are one lap ahead).
	mask := ^uint64(0) << ((i + 1) & 63)
	for k := (i + 1) >> 6; ; k++ {
		k %= len(w.summary)
		if b := w.summary[k] & mask; b != 0 {
			i = k<<6 + bits.TrailingZeros64(b)
			return i<<6 + bits.TrailingZeros64(w.words[i])
		}
		mask = ^uint64(0)
	}
}

// take removes and returns the head of slot pos.
func (w *wheel) take(pos int) *item {
	w.n--
	s := &w.slots[pos]
	it := s.head
	if s.head = it.next; s.head == nil {
		s.tail = nil
		if w.words[pos>>6] &^= 1 << (pos & 63); w.words[pos>>6] == 0 {
			w.summary[pos>>12] &^= 1 << (pos >> 6 & 63)
		}
	}
	return it
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// all scheduling must happen from event callbacks or before Run.
//
// # Same-timestamp ordering
//
// Events scheduled for the same simulated time fire in FIFO order by
// insertion: every At/After call takes the next value of a monotonic
// sequence counter, and events fire in (time, sequence) order. This is a
// contract, not an accident — the sharded coordinator's barrier merge
// relies on it to make cross-shard arrival order deterministic (arrivals
// are injected in a globally sorted order, and the engine preserves that
// order among equal timestamps). Two interactions are worth spelling out:
//
//   - Cancel does not disturb the order of the surviving events: a
//     cancelled item keeps its place in the queue until popped, is then
//     discarded, and its sequence number is never reused.
//   - Reset restarts the sequence counter at zero, so a fresh run of the
//     same schedule reproduces the same tie-break order — which is what
//     keeps engine reuse across sweep trials byte-identical.
//
// # Two tiers
//
// An event whose 16 ns slot is less than one wheel span (8 192 slots,
// ≈131 µs) past the wheel's base goes into the near tier, a timing wheel
// whose slots are chains sorted by (time, sequence); any other event goes
// into the far tier, a 4-ary heap. Every pop takes the earlier of the
// wheel's first item and the heap's top, so the firing order is exactly a
// single heap's. The base is the slot of the latest popped item (or of
// the horizon Run stopped at): every queued event is at or after it.
//
// Popped and cancelled items are recycled through an internal free list,
// so a steady-state schedule/fire cycle performs no allocations; Reset
// rewinds the clock for a fresh run while keeping that free list, the
// heap's capacity and the wheel (allocated with the Engine) warm, which
// is what lets sweep harnesses reuse one engine across trials instead of
// rebuilding it.
type Engine struct {
	now     Time
	seq     uint64
	base    int64          // slot the wheel starts at; no queued item is earlier
	heap    pq.Heap[*item] // the far tier, keyed by (at, seq)
	fired   uint64
	stopped bool
	free    []*item
	wheel   wheel
}

// New returns an engine with simulated time starting at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued in either tier
// (including cancelled events not yet discarded).
func (e *Engine) Pending() int { return e.wheel.n + len(e.heap) }

// NextAt returns the timestamp of the earliest pending live event and
// whether one exists. Cancelled events at the front of the queue are
// discarded (and recycled) on the way, so the answer is exact — this is
// what the shard coordinator uses to pick the next conservative window.
func (e *Engine) NextAt() (Time, bool) {
	for {
		it, pos := e.head()
		if it == nil {
			return 0, false
		}
		if !it.dead {
			return it.at, true
		}
		e.take(it, pos)
		e.recycle(it)
	}
}

// head returns the earliest queued item, live or cancelled, and the wheel
// slot it heads, or -1 when it is the far heap's top. It returns nil when
// both tiers are empty.
func (e *Engine) head() (*item, int) {
	var it *item
	pos := -1
	if e.wheel.n > 0 {
		pos = e.wheel.first(int(e.base & wheelMask))
		it = e.wheel.slots[pos].head
	}
	if len(e.heap) > 0 && (it == nil || before(&e.heap[0], it)) {
		return e.heap[0].Val, -1
	}
	return it, pos
}

// take dequeues the item head returned and moves the wheel's base up to
// its slot: nothing queued is earlier.
func (e *Engine) take(it *item, pos int) {
	if pos >= 0 {
		e.wheel.take(pos)
	} else {
		e.heap.Pop()
	}
	e.advance(it.at)
}

// advance moves the wheel's base up to t's slot; every queued item must be
// at or after t.
func (e *Engine) advance(t Time) {
	if s := slotOf(t); s > e.base {
		e.base = s
	}
}

// fire runs a dequeued item's callback, or only recycles the item if it
// was cancelled. It reports whether a callback ran.
func (e *Engine) fire(it *item) bool {
	if it.dead {
		e.recycle(it)
		return false
	}
	e.now = it.at
	fn := it.fn
	e.recycle(it) // before fn: the callback may schedule (and reuse) freely
	e.fired++
	fn(e.now)
	return true
}

// ErrPastEvent is returned by At when scheduling before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time at. It panics if at precedes the
// current simulated time, since that would violate causality.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: At(%v) before now=%v: %v", at, e.now, ErrPastEvent))
	}
	var it *item
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		it = &item{}
	}
	it.at, it.seq, it.fn, it.dead = at, e.seq, fn, false
	e.seq++
	// The unsigned compare also sends an item before base (possible only
	// after Run rewound now to a horizon behind it) to the heap.
	if s := slotOf(at); uint64(s-e.base) < wheelSlots {
		e.wheel.insert(int(s&wheelMask), it)
	} else {
		e.heap.Push(pq.Entry[*item]{Key: int64(at), Seq: it.seq, Val: it})
	}
	return Handle{it: it, gen: it.gen}
}

// recycle returns a popped item to the free list. Bumping the generation
// first makes every outstanding Handle to it inert; the callback is
// dropped so recycled items never pin event captures.
func (e *Engine) recycle(it *item) {
	it.gen++
	it.fn = nil
	it.dead = true
	e.free = append(e.free, it)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) negative delay", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties, the horizon is
// passed, or Stop is called. Events scheduled exactly at the horizon run.
// It returns the simulated time of the last event executed.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for !e.stopped {
		it, pos := e.head()
		if it == nil {
			break
		}
		if !it.dead && it.at > horizon {
			// Beyond the horizon: leave the event queued (a later Run with
			// a larger horizon resumes it; its Handle stays valid) and
			// stop at the horizon.
			e.now = horizon
			e.advance(horizon)
			return e.now
		}
		e.take(it, pos)
		e.fire(it)
	}
	return e.now
}

// Step executes exactly one pending live event, returning false when none
// remain. Useful for tests that need fine-grained control.
func (e *Engine) Step() bool {
	for {
		it, pos := e.head()
		if it == nil {
			return false
		}
		e.take(it, pos)
		if e.fire(it) {
			return true
		}
	}
}

// Reset rewinds the engine to its initial state — time zero, both tiers
// empty, zero counters — while keeping the item free list, the heap's
// capacity and the wheel, so a harness can reuse one engine across many
// runs without reallocating its internals. Every outstanding Handle is
// invalidated.
func (e *Engine) Reset() {
	for _, x := range e.heap {
		e.recycle(x.Val)
	}
	e.heap.Reset()
	w := &e.wheel
	for i, word := range w.words {
		for ; word != 0; word &= word - 1 {
			s := &w.slots[i<<6+bits.TrailingZeros64(word)]
			for it := s.head; it != nil; it = it.next {
				e.recycle(it)
			}
			*s = wheelSlot{}
		}
		w.words[i] = 0
	}
	w.summary, w.n = [len(w.summary)]uint64{}, 0
	e.now, e.seq, e.base, e.fired, e.stopped = 0, 0, 0, 0, false
}
