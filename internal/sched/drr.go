package sched

import (
	"fmt"

	"qvisor/internal/pkt"
)

// DRR is deficit round robin (Shreedhar and Varghese, SIGCOMM 1995) —
// reference [29] of the QVISOR paper and the classic O(1) fair queuing
// scheduler on commodity hardware. Packets are hashed to per-key queues
// (by flow, by tenant, ...); the scheduler visits active queues in round
// robin, each visit adding a quantum of byte credit and transmitting while
// credit lasts.
//
// DRR ignores ranks entirely: it is a dequeue-side fairness mechanism, in
// contrast to the rank-based fair queuing (STFQ) QVISOR expresses through
// the pre-processor. Both appear in the paper's lineage of fairness
// schedulers; having both allows head-to-head comparisons.
type DRR struct {
	cfg     Config
	keyOf   func(p *pkt.Packet) uint64
	quantum int

	queues map[uint64]*drrQueue
	active []*drrQueue // round-robin ring of backlogged queues
	free   []*drrQueue // recycled queue structs, reused for new keys
	cur    int
	bytes  int
	count  int
	stats  Stats
}

type drrQueue struct {
	key     uint64
	q       pkt.Ring
	bytes   int
	deficit int
	queued  bool // present in the active ring
	visited bool // granted its quantum for the current visit
}

// DRRConfig parametrizes DRR.
type DRRConfig struct {
	Config
	// KeyOf maps packets to fairness keys. Nil keys by flow ID.
	KeyOf func(p *pkt.Packet) uint64
	// QuantumBytes is the per-round byte credit. Zero means 1500 (one
	// full-size packet, the paper's recommendation).
	QuantumBytes int
}

// NewDRR returns a deficit-round-robin scheduler.
func NewDRR(cfg DRRConfig) *DRR {
	keyOf := cfg.KeyOf
	if keyOf == nil {
		keyOf = func(p *pkt.Packet) uint64 { return p.Flow }
	}
	quantum := cfg.QuantumBytes
	if quantum <= 0 {
		quantum = 1500
	}
	return &DRR{
		cfg:     cfg.Config,
		keyOf:   keyOf,
		quantum: quantum,
		queues:  make(map[uint64]*drrQueue),
	}
}

// Name implements Scheduler.
func (d *DRR) Name() string { return "drr" }

// Len implements Scheduler.
func (d *DRR) Len() int { return d.count }

// Bytes implements Scheduler.
func (d *DRR) Bytes() int { return d.bytes }

// Stats returns a snapshot of the counters.
func (d *DRR) Stats() Stats { return d.stats }

// Enqueue implements Scheduler.
func (d *DRR) Enqueue(p *pkt.Packet) bool {
	if d.bytes+p.Size > d.cfg.capacity() {
		return refuse(&d.stats, d.cfg, p, CauseOverflow)
	}
	key := d.keyOf(p)
	q, ok := d.queues[key]
	if !ok {
		if n := len(d.free); n > 0 {
			q = d.free[n-1]
			d.free[n-1] = nil
			d.free = d.free[:n-1]
			q.key = key
		} else {
			q = &drrQueue{key: key}
		}
		d.queues[key] = q
	}
	q.q.Push(p)
	q.bytes += p.Size
	d.bytes += p.Size
	d.count++
	if !q.queued {
		q.queued = true
		q.deficit = 0
		d.active = append(d.active, q)
	}
	d.stats.Enqueued++
	return true
}

// Dequeue implements Scheduler: visit active queues round-robin, spending
// deficit credit.
func (d *DRR) Dequeue() *pkt.Packet {
	if d.count == 0 {
		return nil
	}
	for {
		if d.cur >= len(d.active) {
			d.cur = 0
		}
		q := d.active[d.cur]
		if q.q.Len() == 0 {
			// Queue drained since its last visit: drop from the ring.
			d.unlink(q)
			continue
		}
		// A visit grants exactly one quantum; the queue then serves
		// packets until its deficit runs out, and yields.
		if !q.visited {
			q.deficit += d.quantum
			q.visited = true
		}
		head := q.q.Peek()
		if q.deficit < head.Size {
			q.visited = false // visit over; next arrival grants anew
			d.cur++
			continue
		}
		p := q.q.Pop()
		q.deficit -= p.Size
		q.bytes -= p.Size
		d.bytes -= p.Size
		d.count--
		d.stats.Dequeued++
		if q.q.Len() == 0 {
			// Empty queues forfeit their deficit (standard DRR).
			d.unlink(q)
			if len(d.queues) > 1024 {
				// Bound idle-state growth; the struct (and its warm ring)
				// is recycled for the next fresh key.
				delete(d.queues, q.key)
				d.free = append(d.free, q)
			}
		}
		return p
	}
}

// unlink removes the queue at the current ring position.
func (d *DRR) unlink(q *drrQueue) {
	q.queued = false
	q.visited = false
	q.deficit = 0
	d.active = append(d.active[:d.cur], d.active[d.cur+1:]...)
}

// Reset implements Scheduler: all per-key queues are emptied and returned
// to the struct free list, so a reused DRR serves fresh keys without
// touching the allocator.
func (d *DRR) Reset() {
	for key, q := range d.queues {
		q.q.Reset()
		q.bytes = 0
		q.deficit = 0
		q.queued = false
		q.visited = false
		delete(d.queues, key)
		d.free = append(d.free, q)
	}
	for i := range d.active {
		d.active[i] = nil
	}
	d.active = d.active[:0]
	d.cur = 0
	d.bytes = 0
	d.count = 0
	d.stats = Stats{}
}

// String implements fmt.Stringer for debugging.
func (d *DRR) String() string {
	return fmt.Sprintf("drr{queues=%d active=%d pkts=%d}", len(d.queues), len(d.active), d.count)
}
