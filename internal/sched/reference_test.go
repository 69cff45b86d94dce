package sched

// The parent commit's ring, AIFO and Calendar, kept as test-only references
// after the queue-bank collapse: the code below is verbatim apart from the
// ref prefix on type and constructor names (comments still use the old
// ones) and the calls into the metrics mirror, which no scheduler has any
// more. TestBankMatchesReference drives it against the bank-backed
// disciplines event for event.

import (
	"fmt"

	"qvisor/internal/pkt"
)

// ring is a growable circular buffer of packets.
type refRing struct {
	buf  []*pkt.Packet
	head int
	n    int
}

func (r *refRing) push(p *pkt.Packet) {
	if r.n == len(r.buf) {
		next := make([]*pkt.Packet, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			next[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = next
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *refRing) pop() *pkt.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

func (r *refRing) peek() *pkt.Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// reset empties the ring, dropping packet references but keeping the
// backing buffer so a reused scheduler starts with a warm ring.
func (r *refRing) reset() {
	for r.n > 0 {
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	r.head = 0
}

// AIFO approximates a PIFO with a single FIFO queue plus rank-aware
// admission control (Yu et al., SIGCOMM 2021) — reference [41] of the
// QVISOR paper. Instead of sorting, AIFO drops at enqueue time the packets
// a PIFO would have dropped: it tracks a sliding window of recent ranks and
// admits a packet only if its rank quantile is within the fraction of the
// queue that is still free, inflated by a burstiness allowance.
//
// Admission rule (from the AIFO paper): admit p iff
//
//	quantile(p.Rank) <= (1/(1-k)) * (C - c) / C
//
// where C is the queue capacity, c the current occupancy, and k in [0,1)
// the burstiness parameter.
type refAIFO struct {
	cfg    Config
	q      refRing
	bytes  int
	window []int64 // circular buffer of recent ranks
	wpos   int
	wfill  int
	k      float64
	stats  Stats
}

// NewAIFO returns an AIFO queue. It panics on Burst outside [0,1).
func newRefAIFO(cfg AIFOConfig) *refAIFO {
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 64
	}
	if cfg.Burst == 0 {
		cfg.Burst = 0.1
	}
	if cfg.Burst < 0 || cfg.Burst >= 1 {
		panic("sched: AIFO burst parameter must be in [0,1)")
	}
	return &refAIFO{
		cfg:    cfg.Config,
		window: make([]int64, cfg.WindowSize),
		k:      cfg.Burst,
	}
}

// Name implements Scheduler.
func (q *refAIFO) Name() string { return "aifo" }

// Len implements Scheduler.
func (q *refAIFO) Len() int { return q.q.n }

// Bytes implements Scheduler.
func (q *refAIFO) Bytes() int { return q.bytes }

// Stats returns a snapshot of the scheduler's counters.
func (q *refAIFO) Stats() Stats { return q.stats }

// Enqueue implements Scheduler with quantile-based admission. A refusal
// for lack of buffer space reports CauseOverflow; a refusal decided by
// the quantile rule — the packet would have fit, but its rank is too poor
// for the remaining headroom — reports CauseAdmission.
func (q *refAIFO) Enqueue(p *pkt.Packet) bool {
	cap := q.cfg.capacity()
	admit := q.bytes+p.Size <= cap
	cause := CauseOverflow
	if admit && q.wfill == q.cap() {
		// Window warm: apply the quantile admission rule.
		quant := q.quantile(p.Rank)
		headroom := float64(cap-q.bytes) / float64(cap)
		if quant > headroom/(1-q.k) {
			admit = false
			cause = CauseAdmission
		}
	}
	// The rank sample is recorded for every arrival, admitted or not, so
	// the window reflects the offered load.
	q.observe(p.Rank)
	if !admit {
		q.stats.Dropped++
		q.cfg.drop(p, cause)
		return false
	}
	q.q.push(p)
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

func (q *refAIFO) cap() int { return len(q.window) }

func (q *refAIFO) observe(rank int64) {
	q.window[q.wpos] = rank
	q.wpos = (q.wpos + 1) % len(q.window)
	if q.wfill < len(q.window) {
		q.wfill++
	}
}

// quantile returns the fraction of windowed ranks strictly smaller than r.
func (q *refAIFO) quantile(r int64) float64 {
	if q.wfill == 0 {
		return 0
	}
	smaller := 0
	for i := 0; i < q.wfill; i++ {
		if q.window[i] < r {
			smaller++
		}
	}
	return float64(smaller) / float64(q.wfill)
}

// Reset implements Scheduler: the queue, the rank window, and the counters
// all return to their freshly-constructed state (window buffer kept warm).
func (q *refAIFO) Reset() {
	q.q.reset()
	q.bytes = 0
	q.wpos = 0
	q.wfill = 0
	q.stats = Stats{}
}

// Dequeue implements Scheduler.
func (q *refAIFO) Dequeue() *pkt.Packet {
	p := q.q.pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.Size
	q.stats.Dequeued++
	return p
}

// Calendar approximates a PIFO with rotating priority buckets, in the style
// of programmable calendar queues (Sharma et al., NSDI 2020) — reference
// [28] of the QVISOR paper. Ranks are bucketed at a fixed granularity; the
// scheduler drains the current bucket, then rotates to the next. Packets
// whose rank falls before the current bucket join it (no past buckets);
// ranks beyond the calendar horizon clamp to the last bucket.
type refCalendar struct {
	cfg     Config
	buckets []refRing
	bbytes  []int
	width   int64 // rank units per bucket
	n       int
	cur     int   // index of the current bucket
	base    int64 // smallest rank mapped to the current bucket
	bytes   int
	stats   Stats
}

// NewCalendar returns a calendar queue with n buckets of the given rank
// width. It panics if n < 1 or width < 1.
func newRefCalendar(cfg Config, n int, width int64) *refCalendar {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewCalendar with n=%d", n))
	}
	if width < 1 {
		panic(fmt.Sprintf("sched: NewCalendar with width=%d", width))
	}
	return &refCalendar{
		cfg:     cfg,
		buckets: make([]refRing, n),
		bbytes:  make([]int, n),
		width:   width,
		n:       n,
	}
}

// Name implements Scheduler.
func (q *refCalendar) Name() string { return fmt.Sprintf("calendar%d", q.n) }

// Len implements Scheduler.
func (q *refCalendar) Len() int {
	total := 0
	for i := range q.buckets {
		total += q.buckets[i].n
	}
	return total
}

// Bytes implements Scheduler.
func (q *refCalendar) Bytes() int { return q.bytes }

// Stats returns a snapshot of the scheduler's counters.
func (q *refCalendar) Stats() Stats { return q.stats }

// Enqueue implements Scheduler.
func (q *refCalendar) Enqueue(p *pkt.Packet) bool {
	if q.bytes+p.Size > q.cfg.capacity() {
		q.stats.Dropped++
		q.cfg.drop(p, CauseOverflow)
		return false
	}
	off := 0
	if p.Rank > q.base {
		off = int((p.Rank - q.base) / q.width)
		if off >= q.n {
			off = q.n - 1 // beyond horizon: last bucket
		}
	}
	i := (q.cur + off) % q.n
	q.buckets[i].push(p)
	q.bbytes[i] += p.Size
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// Dequeue implements Scheduler: drain the current bucket, rotating forward
// past empty buckets.
func (q *refCalendar) Dequeue() *pkt.Packet {
	if q.bytes == 0 {
		return nil
	}
	for q.buckets[q.cur].n == 0 {
		q.rotate()
	}
	p := q.buckets[q.cur].pop()
	q.bbytes[q.cur] -= p.Size
	q.bytes -= p.Size
	q.stats.Dequeued++
	return p
}

func (q *refCalendar) rotate() {
	q.cur = (q.cur + 1) % q.n
	q.base += q.width
}

// Reset implements Scheduler: buckets are emptied and the rotation rewinds
// to bucket 0 / base rank 0, with the ring buffers kept warm.
func (q *refCalendar) Reset() {
	for i := range q.buckets {
		q.buckets[i].reset()
		q.bbytes[i] = 0
	}
	q.cur = 0
	q.base = 0
	q.bytes = 0
	q.stats = Stats{}
}

// refPIFO is the parent commit's PIFO, kept after the move onto internal/pq:
// verbatim apart from the ref prefix on its type, heap and constructor
// names (comments still use the old ones). TestPIFOMatchesReference and
// FuzzPIFO drive it against PIFO op for op.
type refPIFO struct {
	cfg   Config
	h     refPIFOHeap
	seq   uint64
	bytes int
	stats Stats
}

// NewPIFO returns an empty PIFO with the given configuration.
func newRefPIFO(cfg Config) *refPIFO {
	return &refPIFO{cfg: cfg}
}

type refPIFOEntry struct {
	p   *pkt.Packet
	seq uint64
}

// pifoHeap is a hand-rolled binary min-heap of value entries. The stdlib
// container/heap is avoided on purpose: pushing a value type through its
// `any` interface boxes the entry on every Enqueue — one heap allocation
// per packet — which would break the zero-allocation data-plane budget.
type refPIFOHeap []refPIFOEntry

func (h refPIFOHeap) less(i, j int) bool {
	if h[i].p.Rank != h[j].p.Rank {
		return h[i].p.Rank < h[j].p.Rank
	}
	return h[i].seq < h[j].seq
}

func (h refPIFOHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h refPIFOHeap) down(i int) {
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

func (h *refPIFOHeap) push(e refPIFOEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *refPIFOHeap) pop() refPIFOEntry {
	old := *h
	n := len(old)
	e := old[0]
	old[0] = old[n-1]
	old[n-1] = refPIFOEntry{}
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return e
}

// remove deletes the entry at index i, preserving heap order.
func (h *refPIFOHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
	}
	old[n] = refPIFOEntry{}
	*h = old[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
}

// Name implements Scheduler.
func (q *refPIFO) Name() string { return "pifo" }

// Len implements Scheduler.
func (q *refPIFO) Len() int { return len(q.h) }

// Bytes implements Scheduler.
func (q *refPIFO) Bytes() int { return q.bytes }

// Stats returns a snapshot of the scheduler's counters.
func (q *refPIFO) Stats() Stats { return q.stats }

// Enqueue implements Scheduler.
func (q *refPIFO) Enqueue(p *pkt.Packet) bool {
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
	q.h.push(refPIFOEntry{p: p, seq: q.seq})
	q.seq++
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// worstIndex returns the heap index of the worst (highest rank, most recent
// among ties) packet, or -1 if empty. Linear scan: buffers are shallow
// (hundreds of packets) and eviction only happens under overload.
func (q *refPIFO) worstIndex() int {
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
func (q *refPIFO) Dequeue() *pkt.Packet {
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
func (q *refPIFO) Reset() {
	for i := range q.h {
		q.h[i] = refPIFOEntry{}
	}
	q.h = q.h[:0]
	q.seq = 0
	q.bytes = 0
	q.stats = Stats{}
}

// Peek returns the next packet without removing it, or nil when empty.
func (q *refPIFO) Peek() *pkt.Packet {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0].p
}
