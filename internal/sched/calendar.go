package sched

import (
	"fmt"

	"qvisor/internal/pkt"
)

// Calendar approximates a PIFO with rotating priority buckets, in the style
// of programmable calendar queues (Sharma et al., NSDI 2020) — reference
// [28] of the QVISOR paper. Ranks are bucketed at a fixed granularity; the
// scheduler drains the current bucket, then rotates to the next. Packets
// whose rank falls before the current bucket join it (no past buckets);
// ranks beyond the calendar horizon clamp to the last bucket.
//
// That clamp is what keeps Calendar a discipline of its own rather than a
// BucketQ configuration: inside the horizon the two are event-for-event
// identical, but host NIC ports enqueue raw tenant ranks far beyond it,
// where the calendar clamps and the bucket queue parks packets in its
// overflow FIFO (see DESIGN.md for the measurement).
type Calendar struct {
	bank
	width int64 // rank units per bucket
	cur   int   // index of the current bucket
	base  int64 // smallest rank mapped to the current bucket
}

// NewCalendar returns a calendar queue with n buckets of the given rank
// width. It panics if n < 1 or width < 1.
func NewCalendar(cfg Config, n int, width int64) *Calendar {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewCalendar with n=%d", n))
	}
	if width < 1 {
		panic(fmt.Sprintf("sched: NewCalendar with width=%d", width))
	}
	return &Calendar{bank: newBank(cfg, n), width: width}
}

// Name implements Scheduler.
func (q *Calendar) Name() string { return fmt.Sprintf("calendar%d", len(q.queues)) }

// Enqueue implements Scheduler.
func (q *Calendar) Enqueue(p *pkt.Packet) bool {
	if !q.fits(p) {
		return refuse(&q.stats, q.cfg, p, CauseOverflow)
	}
	n := len(q.queues)
	off := 0
	if p.Rank > q.base {
		off = int(min((p.Rank-q.base)/q.width, int64(n-1))) // beyond horizon: last bucket
	}
	return q.put((q.cur+off)%n, p)
}

// Dequeue implements Scheduler: drain the current bucket, rotating forward
// past empty buckets.
func (q *Calendar) Dequeue() *pkt.Packet {
	p, i := q.popFrom(q.cur)
	q.base += int64((i-q.cur+len(q.queues))%len(q.queues)) * q.width
	q.cur = i
	return p
}

// Reset implements Scheduler: the bank empties and the rotation rewinds to
// bucket 0 / base rank 0.
func (q *Calendar) Reset() {
	q.bank.Reset()
	q.cur, q.base = 0, 0
}
