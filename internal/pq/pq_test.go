package pq

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// model is the sorted-slice reference: entries kept in (Key, Seq) order.
type model []Entry[int]

func (m *model) push(e Entry[int]) {
	i, _ := slices.BinarySearchFunc(*m, e, cmpEntry)
	*m = slices.Insert(*m, i, e)
}

// remove deletes e and reports whether it was there.
func (m *model) remove(e Entry[int]) bool {
	i, ok := slices.BinarySearchFunc(*m, e, cmpEntry)
	if ok {
		*m = slices.Delete(*m, i, i+1)
	}
	return ok
}

func cmpEntry(a, b Entry[int]) int {
	switch {
	case before(&a, &b):
		return -1
	case before(&b, &a):
		return 1
	}
	return 0
}

// check fails unless h is heap-ordered and holds exactly m's entries.
func check(t *testing.T, where string, h Heap[int], m model) {
	t.Helper()
	for i := 1; i < len(h); i++ {
		if before(&h[i], &h[(i-1)/2]) {
			t.Fatalf("%s: entry %d %+v precedes its parent %+v", where, i, h[i], h[(i-1)/2])
		}
	}
	got := model(slices.Clone(h))
	slices.SortFunc(got, cmpEntry)
	if !slices.Equal(got, m) {
		t.Fatalf("%s: heap holds %v, model %v", where, got, m)
	}
}

// TestHeapMatchesSortedModel drives a Heap and a sorted slice with random
// Push, Pop, Remove, Max and Reset. Keys take at most eight values, so
// nearly every compare is decided by Seq.
func TestHeapMatchesSortedModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := 1 + rng.Int63n(8)
		var h Heap[int]
		var m model
		var seq uint64
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				e := Entry[int]{Key: rng.Int63n(keys) - keys/2, Seq: seq, Val: int(seq)}
				seq++
				h.Push(e)
				m.push(e)
			case op < 13:
				if len(h) == 0 {
					continue
				}
				if got := h.Pop(); got != m[0] {
					t.Fatalf("seed %d step %d: Pop %+v, model least %+v", seed, step, got, m[0])
				}
				m = m[1:]
			case op < 16:
				if len(h) == 0 {
					continue
				}
				i := rng.Intn(len(h))
				want := h[i]
				if got := h.Remove(i); got != want || !m.remove(got) {
					t.Fatalf("seed %d step %d: Remove(%d) %+v, entry there %+v (in model: %v)", seed, step, i, got, want, m)
				}
			case op < 19:
				i := h.Max()
				if len(m) == 0 {
					if i != -1 {
						t.Fatalf("seed %d step %d: Max of empty heap %d", seed, step, i)
					}
					continue
				}
				if h[i] != m[len(m)-1] {
					t.Fatalf("seed %d step %d: Max %+v, model greatest %+v", seed, step, h[i], m[len(m)-1])
				}
			default:
				h.Reset()
				m = m[:0]
			}
			check(t, "after step", h, m)
		}
		// Reset must release every value: the backing array is all zero.
		h.Reset()
		for i, e := range h[:cap(h)] {
			if e != (Entry[int]{}) {
				t.Fatalf("seed %d: slot %d holds %+v after Reset", seed, i, e)
			}
		}
	}
}

// TestMaxIsALeaf: for any heap built by pushes and pops, Max names a
// leaf (an index without children) holding the greatest entry.
func TestMaxIsALeaf(t *testing.T) {
	f := func(keys []int8, pops uint8) bool {
		var h Heap[int]
		for i, k := range keys {
			h.Push(Entry[int]{Key: int64(k % 4), Seq: uint64(i), Val: i})
		}
		for n := int(pops) % (len(keys) + 1); n > 0; n-- {
			h.Pop()
		}
		i := h.Max()
		if len(h) == 0 {
			return i == -1
		}
		if 2*i+1 < len(h) {
			return false
		}
		for j := range h {
			if before(&h[i], &h[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocBudgetPQ: once the backing array has grown, a push, pop and
// remove cycle allocates nothing.
func TestAllocBudgetPQ(t *testing.T) {
	var h Heap[*int]
	v := new(int)
	var seq uint64
	push := func() {
		h.Push(Entry[*int]{Key: int64(seq * 7919 % 64), Seq: seq, Val: v})
		seq++
	}
	for i := 0; i < 256; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		push()
		push()
		h.Pop()
		h.Remove(h.Max())
	})
	if allocs != 0 {
		t.Fatalf("push/pop/remove cycle: %v allocs/op, want 0", allocs)
	}
}
