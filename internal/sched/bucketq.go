package sched

import (
	"fmt"
	"math/bits"

	"qvisor/internal/pkt"
)

// BucketQ approximates a PIFO with an Eiffel-style hierarchical
// find-first-set bucket queue (Saeed et al., NSDI 2019 — the gradient-queue
// structure QVISOR's §3.4 "existing schedulers" family points at for
// software line rate). Ranks are quantized into fixed-width buckets over a
// circular horizon; each bucket keeps a FIFO chain of pooled nodes, and a
// two-level uint64 occupancy bitmap finds the lowest non-empty bucket with
// two TrailingZeros64 instructions, so enqueue and dequeue are O(1)
// regardless of backlog — the heap-based PIFO pays O(log n) per operation
// at the same job.
//
// Approximation contract (checked differentially by internal/conform):
// dequeue order is exact up to rank quantization — packets leave in
// non-decreasing bucket order, FIFO within a bucket. Ranks before the
// current bucket join it (no past buckets, the calendar convention); ranks
// at or beyond the horizon wait in an overflow FIFO that is re-filed into
// the ring, preserving arrival order, once the ring drains past it. The
// horizon base only ever advances by whole bucket widths, so the global
// quantization map stays well-defined across rotations.
type BucketQ struct {
	cfg   Config
	nb    int   // bucket count
	width int64 // rank units per bucket

	cur  int   // physical index of the bucket holding rank base
	base int64 // smallest rank mapped to the bucket at cur

	head, tail []*bqNode // per-bucket FIFO chains, physical index
	words      []uint64  // occupancy bitmap: bit i of words[i>>6] = bucket i non-empty
	summary    uint64    // level-2 bitmap: bit w = words[w] != 0

	// Overflow FIFO for ranks at or beyond base + nb*width, with the
	// minimum queued rank tracked so rebasing lands the earliest overflow
	// packet in bucket 0.
	ovHead, ovTail *bqNode
	ovMin          int64
	ovCount        int

	free  *bqNode // node free list (steady state allocates nothing)
	count int
	bytes int
	stats Stats
}

// bqNode is one link of a bucket's FIFO chain. Nodes are recycled through
// the scheduler's free list so the hot path stays at 0 allocs/op.
type bqNode struct {
	p    *pkt.Packet
	next *bqNode
}

// NewBucketQ returns a bucket queue with n buckets of the given rank
// width. It panics if n < 1, n > 4096, or width < 1.
func NewBucketQ(cfg Config, n int, width int64) *BucketQ {
	if n < 1 || n > MaxQueues {
		panic(fmt.Sprintf("sched: NewBucketQ with n=%d (want 1..%d)", n, MaxQueues))
	}
	if width < 1 {
		panic(fmt.Sprintf("sched: NewBucketQ with width=%d", width))
	}
	return &BucketQ{
		cfg:   cfg,
		nb:    n,
		width: width,
		head:  make([]*bqNode, n),
		tail:  make([]*bqNode, n),
		words: make([]uint64, (n+63)/64),
	}
}

// Name implements Scheduler.
func (q *BucketQ) Name() string { return fmt.Sprintf("bucketq%d", q.nb) }

// Len implements Scheduler.
func (q *BucketQ) Len() int { return q.count }

// Bytes implements Scheduler.
func (q *BucketQ) Bytes() int { return q.bytes }

// Stats returns a snapshot of the scheduler's counters.
func (q *BucketQ) Stats() Stats { return q.stats }

// Buckets returns the ring size; Width the rank units per bucket;
// OverflowLen the packets waiting beyond the horizon. Tests use these to
// cross-check the bitmap index and overflow bookkeeping.
func (q *BucketQ) Buckets() int     { return q.nb }
func (q *BucketQ) Width() int64     { return q.width }
func (q *BucketQ) OverflowLen() int { return q.ovCount }
func (q *BucketQ) BaseRank() int64  { return q.base }

// Enqueue implements Scheduler.
func (q *BucketQ) Enqueue(p *pkt.Packet) bool {
	if q.bytes+p.Size > q.cfg.capacity() {
		return refuse(&q.stats, q.cfg, p, CauseOverflow)
	}
	q.fileNode(q.node(p))
	q.count++
	q.bytes += p.Size
	q.stats.Enqueued++
	return true
}

// fileNode places a chained packet into its bucket (or the overflow FIFO)
// relative to the current base. Shared by Enqueue and the rebase re-file
// so both use identical placement rules.
func (q *BucketQ) fileNode(n *bqNode) {
	off := int64(0)
	if r := n.p.Rank; r > q.base {
		off = (r - q.base) / q.width
	}
	if off >= int64(q.nb) {
		n.next = nil
		if q.ovTail == nil {
			q.ovHead = n
			q.ovMin = n.p.Rank
		} else {
			q.ovTail.next = n
			if n.p.Rank < q.ovMin {
				q.ovMin = n.p.Rank
			}
		}
		q.ovTail = n
		q.ovCount++
		return
	}
	i := q.cur + int(off)
	if i >= q.nb {
		i -= q.nb
	}
	n.next = nil
	if q.tail[i] == nil {
		q.head[i] = n
		q.words[i>>6] |= 1 << uint(i&63)
		q.summary |= 1 << uint(i>>6)
	} else {
		q.tail[i].next = n
	}
	q.tail[i] = n
}

// findFirst returns the lowest occupied physical bucket index ≥ start, or
// -1 when none: one masked TrailingZeros64 over the word holding start,
// then one over the summary for the words above it.
func (q *BucketQ) findFirst(start int) int {
	w := start >> 6
	if masked := q.words[w] &^ (uint64(1)<<uint(start&63) - 1); masked != 0 {
		return w<<6 + bits.TrailingZeros64(masked)
	}
	if rest := q.summary &^ (uint64(1)<<uint(w+1) - 1); rest != 0 {
		w = bits.TrailingZeros64(rest)
		return w<<6 + bits.TrailingZeros64(q.words[w])
	}
	return -1
}

// Dequeue implements Scheduler: pop the FIFO head of the lowest occupied
// bucket at or after the current one, wrapping around the ring; when the
// ring is empty but packets wait beyond the horizon, rebase onto them.
func (q *BucketQ) Dequeue() *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	idx := q.findFirst(q.cur)
	if idx >= 0 {
		q.base += int64(idx-q.cur) * q.width
	} else if idx = q.findFirst(0); idx >= 0 {
		q.base += int64(q.nb-q.cur+idx) * q.width
	} else {
		q.rebase()
		idx = q.findFirst(0) // rebase files the earliest overflow rank into bucket 0
	}
	q.cur = idx

	n := q.head[idx]
	q.head[idx] = n.next
	if n.next == nil {
		q.tail[idx] = nil
		q.words[idx>>6] &^= 1 << uint(idx&63)
		if q.words[idx>>6] == 0 {
			q.summary &^= 1 << uint(idx>>6)
		}
	}
	p := n.p
	q.putNode(n)
	q.count--
	q.bytes -= p.Size
	q.stats.Dequeued++
	return p
}

// rebase advances the horizon onto the overflow FIFO once the ring is
// empty: base jumps (in whole bucket widths, keeping the global
// quantization map aligned) to cover the earliest overflow rank, and the
// chain is re-filed in arrival order so FIFO-within-bucket survives the
// rotation. Packets still beyond the new horizon re-enter the overflow
// FIFO, again in arrival order.
func (q *BucketQ) rebase() {
	q.base += (q.ovMin - q.base) / q.width * q.width
	q.cur = 0
	n := q.ovHead
	q.ovHead, q.ovTail = nil, nil
	q.ovCount = 0
	q.ovMin = 0
	for n != nil {
		next := n.next
		q.fileNode(n)
		n = next
	}
}

// node takes a link from the free list (or allocates when cold).
func (q *BucketQ) node(p *pkt.Packet) *bqNode {
	n := q.free
	if n == nil {
		n = &bqNode{}
	} else {
		q.free = n.next
	}
	n.p = p
	n.next = nil
	return n
}

// putNode returns a link to the free list.
func (q *BucketQ) putNode(n *bqNode) {
	n.p = nil
	n.next = q.free
	q.free = n
}

// Reset implements Scheduler: chains are discarded (nodes return to the
// free list, packets are dropped silently per the ownership contract), the
// bitmaps clear, and the rotation rewinds to bucket 0 / base rank 0.
func (q *BucketQ) Reset() {
	for i := range q.head {
		for n := q.head[i]; n != nil; {
			next := n.next
			q.putNode(n)
			n = next
		}
		q.head[i], q.tail[i] = nil, nil
	}
	for i := range q.words {
		q.words[i] = 0
	}
	for n := q.ovHead; n != nil; {
		next := n.next
		q.putNode(n)
		n = next
	}
	q.ovHead, q.ovTail = nil, nil
	q.ovMin = 0
	q.ovCount = 0
	q.summary = 0
	q.cur = 0
	q.base = 0
	q.count = 0
	q.bytes = 0
	q.stats = Stats{}
}
