// Package pq is the one priority queue under the simulator: a 4-ary
// min-heap of value entries ordered by (Key, Seq). The ideal PIFO
// (internal/sched), every node of a PIFO tree (internal/pifotree) and the
// event engine's far tier (internal/sim) are each a Heap.
//
// The rank lives in the entry. A compare reads only Key and Seq, so it
// never loads the value an entry carries: a PIFO's heap of packet pointers
// is sifted without touching a packet. Callers supply Seq, normally an
// arrival counter, which makes the order strict and total: equal keys
// leave in Seq order, which is the FIFO-among-equal-ranks rule of
// "Programmable Packet Scheduling".
//
// Four children halve the depth of a binary heap, and a sift-down picks
// the least of them without a branch: each compare's outcome is the
// borrow of a 128-bit subtract, which selects by arithmetic. Under a
// strict order that outcome is a coin flip a branch predictor cannot
// learn.
//
// The stdlib container/heap is not used: its interface boxes a value
// entry on every Push, one allocation per packet, and makes every compare
// a dynamic call.
package pq

import "math/bits"

// Entry is one queued value with its ordering key.
type Entry[T any] struct {
	Key int64
	Seq uint64
	Val T
}

// before reports whether a precedes b: lower Key, then lower Seq.
func before[T any](a, b *Entry[T]) bool {
	return a.Key < b.Key || a.Key == b.Key && a.Seq < b.Seq
}

// order returns e's place in the (Key, Seq) order as a 128-bit unsigned
// number (hi, lo): Key with its sign bit flipped, so that unsigned order
// is signed order, then Seq.
func order[T any](e *Entry[T]) (hi, lo uint64) {
	return uint64(e.Key) ^ 1<<63, e.Seq
}

// lt is 1 when (ah, al) < (bh, bl) and 0 otherwise, without a branch: the
// borrow of the 128-bit subtract.
func lt(ah, al, bh, bl uint64) uint64 {
	_, borrow := bits.Sub64(al, bl, 0)
	_, borrow = bits.Sub64(ah, bh, borrow)
	return borrow
}

// pick is y when w is 1 and x when w is 0, without a branch.
func pick(w, x, y uint64) uint64 { return x ^ (x^y)&-w }

// parent returns the index of i's parent, (i−1)/4; i must be positive,
// so the division is an unsigned shift.
func parent(i int) int { return int(uint(i-1) / 4) }

// child returns the index of i's first child; its siblings follow it.
func child(i int) int { return 4*i + 1 }

// Heap is a 4-ary min-heap in (Key, Seq) order: h[0] is the least entry,
// and the children of h[i] are h[4i+1] to h[4i+4]. The zero value is an
// empty heap. Seqs must be distinct among queued entries; Max relies on
// it.
type Heap[T any] []Entry[T]

// Push adds e.
func (h *Heap[T]) Push(e Entry[T]) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// Pop removes and returns the least entry. The heap must not be empty.
func (h *Heap[T]) Pop() Entry[T] {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	old[n] = Entry[T]{}
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Remove removes and returns the entry at index i.
func (h *Heap[T]) Remove(i int) Entry[T] {
	old := *h
	n := len(old) - 1
	e := old[i]
	old[i] = old[n]
	old[n] = Entry[T]{}
	*h = old[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	return e
}

// Max returns the index of the greatest entry, or -1 when the heap is
// empty. Every interior entry precedes its children, so under a strict
// order the greatest entry has none: Max scans only the leaves, the
// entries after parent(n−1), about 3n/4 of them. The running maximum's
// Key and Seq stay in locals.
func (h Heap[T]) Max() int {
	n := len(h)
	if n == 0 {
		return -1
	}
	lo := (n + 2) / 4 // parent(n-1) + 1, and 0 when n is 1
	leaves := h[lo:]
	m, k, s := 0, leaves[0].Key, leaves[0].Seq
	for i := 1; i < len(leaves); i++ {
		if e := &leaves[i]; e.Key > k || e.Key == k && e.Seq > s {
			m, k, s = i, e.Key, e.Seq
		}
	}
	return lo + m
}

// Reset empties the heap, releasing the values it held, and keeps its
// capacity.
func (h *Heap[T]) Reset() {
	clear(*h)
	*h = (*h)[:0]
}

// up moves the entry at i toward the root. It carries the entry in hand
// and shifts each parent it precedes down into the hole, so every level
// costs one copy instead of a swap.
func (h Heap[T]) up(i int) {
	e := h[i]
	for i > 0 {
		p := parent(i)
		if !before(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down moves the entry at i toward the leaves, shifting the least child
// up into the hole while that child precedes it. A full group of four
// siblings is settled without a branch by a tournament: each pair's
// winner, then the winner of the two. Each pick is a 0/1 from lt that
// selects the winner's order and index by masking, in registers, so the
// final pick reloads no child. Only the last, short group compares in a
// loop.
func (h Heap[T]) down(i int) {
	n := len(h)
	e := h[i]
	for {
		c := child(i)
		if c+4 <= n {
			g := h[c : c+4 : c+4]
			h0, l0 := order(&g[0])
			h1, l1 := order(&g[1])
			h2, l2 := order(&g[2])
			h3, l3 := order(&g[3])
			a := lt(h1, l1, h0, l0)
			b := lt(h3, l3, h2, l2)
			ha, la := pick(a, h0, h1), pick(a, l0, l1)
			hb, lb := pick(b, h2, h3), pick(b, l2, l3)
			c += int(pick(lt(hb, lb, ha, la), a, 2+b))
		} else {
			if c >= n {
				break
			}
			for j := c + 1; j < n; j++ {
				if before(&h[j], &h[c]) {
					c = j
				}
			}
		}
		if !before(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
