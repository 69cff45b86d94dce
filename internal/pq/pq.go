// Package pq is the one priority queue under the simulator: a binary
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
// The stdlib container/heap is not used: its interface boxes a value
// entry on every Push, one allocation per packet, and makes every compare
// a dynamic call.
package pq

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

// Heap is a binary min-heap in (Key, Seq) order: h[0] is the least entry.
// The zero value is an empty heap. Seqs must be distinct among queued
// entries; Max relies on it.
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
// order the greatest entry has none: Max scans only the leaves, the last
// ⌈n/2⌉ entries.
func (h Heap[T]) Max() int {
	n := len(h)
	if n == 0 {
		return -1
	}
	m := n / 2
	for i := m + 1; i < n; i++ {
		if before(&h[m], &h[i]) {
			m = i
		}
	}
	return m
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
		parent := (i - 1) / 2
		if !before(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// down moves the entry at i toward the leaves, shifting the lesser child
// up into the hole while that child precedes it.
func (h Heap[T]) down(i int) {
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&h[r], &h[c]) {
			c = r
		}
		if !before(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
