package sched

import (
	"qvisor/internal/pkt"
	"qvisor/internal/pq"
)

// PIFO is an ideal push-in first-out queue: packets are dequeued in
// non-decreasing rank order, with FIFO order among equal ranks. This is the
// abstraction QVISOR offers tenants ("tenants have the illusion that their
// traffic is scheduled by a PIFO queue", §1) and the scheduler used in the
// paper's evaluation (§4).
//
// When the buffer is full, PIFO keeps the highest-priority set of packets:
// an arriving packet with a better (lower) rank than the currently worst
// queued packet evicts that packet; otherwise the arrival is dropped. This
// matches pFabric's drop-worst buffer policy.
//
// The heap keys each packet by the rank it had at Enqueue (see Scheduler's
// ownership contract), so ordering never reads a queued packet.
type PIFO struct {
	cfg   Config
	h     pq.Heap[*pkt.Packet]
	seq   uint64
	bytes int
	stats Stats
}

// NewPIFO returns an empty PIFO with the given configuration.
func NewPIFO(cfg Config) *PIFO {
	return &PIFO{cfg: cfg}
}

// Name implements Scheduler.
func (q *PIFO) Name() string { return "pifo" }

// Len implements Scheduler.
func (q *PIFO) Len() int { return len(q.h) }

// Bytes implements Scheduler.
func (q *PIFO) Bytes() int { return q.bytes }

// Stats returns a snapshot of the scheduler's counters.
func (q *PIFO) Stats() Stats { return q.stats }

// Enqueue implements Scheduler.
func (q *PIFO) Enqueue(p *pkt.Packet) bool {
	cap := q.cfg.capacity()
	for q.bytes+p.Size > cap {
		// Buffer full: keep the best-ranked packets. Evict the worst
		// queued packet — highest rank, the latest arrival among equals —
		// if the arrival beats it, otherwise drop the arrival. Ties favor
		// the queued packet (FIFO among equals).
		wi := q.h.Max()
		if wi < 0 || q.h[wi].Key <= p.Rank {
			return refuse(&q.stats, q.cfg, p, CauseOverflow)
		}
		ev := q.h.Remove(wi).Val
		q.bytes -= ev.Size
		q.stats.Evicted++
		q.cfg.drop(ev, CauseEvicted)
	}
	q.h.Push(pq.Entry[*pkt.Packet]{Key: p.Rank, Seq: q.seq, Val: p})
	q.seq++
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// Dequeue implements Scheduler.
func (q *PIFO) Dequeue() *pkt.Packet {
	if len(q.h) == 0 {
		return nil
	}
	p := q.h.Pop().Val
	q.bytes -= p.Size
	q.stats.Dequeued++
	return p
}

// Reset implements Scheduler: it empties the heap and zeroes the counters
// while keeping the heap slice's capacity for the next run.
func (q *PIFO) Reset() {
	q.h.Reset()
	q.seq = 0
	q.bytes = 0
	q.stats = Stats{}
}

// Peek returns the next packet without removing it, or nil when empty.
func (q *PIFO) Peek() *pkt.Packet {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0].Val
}
