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
