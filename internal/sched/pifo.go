package sched

import (
	"qvisor/internal/pkt"
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
type PIFO struct {
	cfg   Config
	h     pifoHeap
	seq   uint64
	bytes int
	stats Stats
}

// NewPIFO returns an empty PIFO with the given configuration.
func NewPIFO(cfg Config) *PIFO {
	return &PIFO{cfg: cfg}
}

type pifoEntry struct {
	p   *pkt.Packet
	seq uint64
}

// pifoHeap is a hand-rolled binary min-heap of value entries. The stdlib
// container/heap is avoided on purpose: pushing a value type through its
// `any` interface boxes the entry on every Enqueue — one heap allocation
// per packet — which would break the zero-allocation data-plane budget.
type pifoHeap []pifoEntry

func (h pifoHeap) less(i, j int) bool {
	if h[i].p.Rank != h[j].p.Rank {
		return h[i].p.Rank < h[j].p.Rank
	}
	return h[i].seq < h[j].seq
}

func (h pifoHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h pifoHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h *pifoHeap) push(e pifoEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *pifoHeap) pop() pifoEntry {
	old := *h
	n := len(old)
	e := old[0]
	old[0] = old[n-1]
	old[n-1] = pifoEntry{}
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return e
}

// remove deletes the entry at index i, preserving heap order.
func (h *pifoHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
	}
	old[n] = pifoEntry{}
	*h = old[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
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
		// queued packet if the arrival beats it, otherwise drop the
		// arrival. Ties favor the queued packet (FIFO among equals).
		wi := q.worstIndex()
		if wi < 0 || q.h[wi].p.Rank <= p.Rank {
			q.stats.Dropped++
			q.cfg.drop(p, CauseOverflow)
			return false
		}
		ev := q.h[wi].p
		q.h.remove(wi)
		q.bytes -= ev.Size
		q.stats.Evicted++
		q.cfg.drop(ev, CauseEvicted)
	}
	q.h.push(pifoEntry{p: p, seq: q.seq})
	q.seq++
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// worstIndex returns the heap index of the worst (highest rank, most recent
// among ties) packet, or -1 if empty. Linear scan: buffers are shallow
// (hundreds of packets) and eviction only happens under overload.
func (q *PIFO) worstIndex() int {
	if len(q.h) == 0 {
		return -1
	}
	wi := 0
	for i := 1; i < len(q.h); i++ {
		w := q.h[wi]
		e := q.h[i]
		if e.p.Rank > w.p.Rank || (e.p.Rank == w.p.Rank && e.seq > w.seq) {
			wi = i
		}
	}
	return wi
}

// Dequeue implements Scheduler.
func (q *PIFO) Dequeue() *pkt.Packet {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h.pop()
	q.bytes -= e.p.Size
	q.stats.Dequeued++
	return e.p
}

// Reset implements Scheduler: it empties the heap and zeroes the counters
// while keeping the heap slice's capacity for the next run.
func (q *PIFO) Reset() {
	for i := range q.h {
		q.h[i] = pifoEntry{}
	}
	q.h = q.h[:0]
	q.seq = 0
	q.bytes = 0
	q.stats = Stats{}
}

// Peek returns the next packet without removing it, or nil when empty.
func (q *PIFO) Peek() *pkt.Packet {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0].p
}
