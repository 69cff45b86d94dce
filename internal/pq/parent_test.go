package pq

import (
	"math/rand"
	"testing"
)

// parentHeap is the binary min-heap that Heap replaced, kept verbatim
// (renamed) as the reference TestHeapMatchesParent runs Heap against.
// Queued entries are totally ordered by (Key, Seq), so any correct heap
// pops the same sequence and names the same greatest entry, whatever
// its layout.
type parentHeap[T any] []Entry[T]

// Push adds e.
func (h *parentHeap[T]) Push(e Entry[T]) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// Pop removes and returns the least entry. The heap must not be empty.
func (h *parentHeap[T]) Pop() Entry[T] {
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
func (h *parentHeap[T]) Remove(i int) Entry[T] {
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
func (h parentHeap[T]) Max() int {
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
func (h *parentHeap[T]) Reset() {
	clear(*h)
	*h = (*h)[:0]
}

// up moves the entry at i toward the root. It carries the entry in hand
// and shifts each parent it precedes down into the hole, so every level
// costs one copy instead of a swap.
func (h parentHeap[T]) up(i int) {
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
func (h parentHeap[T]) down(i int) {
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

// TestHeapMatchesParent drives Heap and the parent binary heap in
// lockstep with seeded random Push, Pop, Remove, Max and Reset. Keys come
// from a small range, so Seq decides most compares, and some runs use
// extreme keys or Seqs to reach the ends of their orders. Pop must return
// equal entries and Max must name equal entries (their indices differ
// between layouts); Remove takes the same entry out of both, found by its
// Seq.
func TestHeapMatchesParent(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Int63n(8)
		key := func() int64 { return rng.Int63n(keys) - keys/2 }
		if seed%10 == 9 {
			extremes := []int64{-1 << 63, -1<<63 + 1, -1, 0, 1, 1<<63 - 2, 1<<63 - 1}
			key = func() int64 { return extremes[rng.Intn(len(extremes))] }
		}
		var h Heap[int]
		var p parentHeap[int]
		// Some runs start Seq just below the sign bit or near the top of
		// uint64, so a signed or wrapping Seq compare shows.
		seq := []uint64{0, 0, 0, 1<<63 - 300, ^uint64(0) - 2500}[seed%5]
		// Pushes take 40–60 % of the steps, so some runs hover near empty
		// and others grow to a few hundred entries, several levels deep.
		push := 400 + rng.Intn(200)
		steps := 200 + rng.Intn(1800)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(1000); {
			case op < push:
				e := Entry[int]{Key: key(), Seq: seq, Val: int(seq)}
				seq++
				h.Push(e)
				p.Push(e)
			case op < push+250:
				if len(p) == 0 {
					continue
				}
				if got, want := h.Pop(), p.Pop(); got != want {
					t.Fatalf("seed %d step %d: Pop %+v, parent %+v", seed, step, got, want)
				}
			case op < push+350:
				if len(p) == 0 {
					continue
				}
				j := rng.Intn(len(p))
				i := indexOfSeq(h, p[j].Seq)
				if i < 0 {
					t.Fatalf("seed %d step %d: seq %d queued in the parent only", seed, step, p[j].Seq)
				}
				if got, want := h.Remove(i), p.Remove(j); got != want {
					t.Fatalf("seed %d step %d: Remove %+v, parent %+v", seed, step, got, want)
				}
			case op < 998:
				i, j := h.Max(), p.Max()
				if (i < 0) != (j < 0) {
					t.Fatalf("seed %d step %d: Max %d, parent %d", seed, step, i, j)
				}
				if i >= 0 && h[i] != p[j] {
					t.Fatalf("seed %d step %d: Max names %+v, parent %+v", seed, step, h[i], p[j])
				}
			default:
				h.Reset()
				p.Reset()
			}
			if len(h) != len(p) {
				t.Fatalf("seed %d step %d: %d entries, parent %d", seed, step, len(h), len(p))
			}
		}
		for len(p) > 0 {
			if got, want := h.Pop(), p.Pop(); got != want {
				t.Fatalf("seed %d drain: Pop %+v, parent %+v", seed, got, want)
			}
		}
	}
}

// indexOfSeq returns the index of the entry with Seq s, or -1.
func indexOfSeq(h Heap[int], s uint64) int {
	for i := range h {
		if h[i].Seq == s {
			return i
		}
	}
	return -1
}
