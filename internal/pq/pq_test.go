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
		if p := parent(i); before(&h[i], &h[p]) {
			t.Fatalf("%s: entry %d %+v precedes its parent %+v", where, i, h[i], h[p])
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

// TestLayout pins the 4-ary layout the structural checks walk: the
// children of i are 4i+1..4i+4, and each of them names i as its parent.
func TestLayout(t *testing.T) {
	for i := 0; i < 1<<12; i++ {
		if c := child(i); c != 4*i+1 {
			t.Fatalf("child(%d) = %d, want %d", i, c, 4*i+1)
		}
		for k := 0; k < 4; k++ {
			if p := parent(child(i) + k); p != i {
				t.Fatalf("parent(%d) = %d, want %d", child(i)+k, p, i)
			}
		}
	}
}

// fuzzKeys are the keys a fuzzed push draws from: a few small ones, so
// Seq decides most compares, and both ends of int64.
var fuzzKeys = [16]int64{-1 << 63, -1<<63 + 1, -3, -2, -1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 1<<63 - 2, 1<<63 - 1}

// FuzzHeap decodes bytes into operations on a Heap and the sorted-slice
// model and checks the two agree after each one. The first byte picks
// where Seq starts (zero, below the sign bit, or near the top of uint64);
// then each byte is one operation: below 128 a push with key
// fuzzKeys[b&15], 128–175 a pop, 176–207 a remove at the index the next
// byte names, 208–253 a Max, and 254–255 a Reset. Scripts are cut at 512
// operations.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 5, 6, 7, 4, 128, 208, 5, 176, 1, 208, 254, 3})
	f.Add([]byte{1, 0, 15, 1, 14, 5, 5, 5, 208, 130, 176, 2, 208, 140})
	f.Add([]byte{2, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 128, 176, 7, 208, 128, 128})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		seq := []uint64{0, 1<<63 - 256, ^uint64(0) - 1024}[script[0]%3]
		script = script[1:]
		if len(script) > 512 {
			script = script[:512]
		}
		var h Heap[int]
		var m model
		for pc := 0; pc < len(script); pc++ {
			switch b := script[pc]; {
			case b < 128:
				e := Entry[int]{Key: fuzzKeys[b&15], Seq: seq, Val: pc}
				seq++
				h.Push(e)
				m.push(e)
			case b < 176:
				if len(h) == 0 {
					continue
				}
				if got := h.Pop(); got != m[0] {
					t.Fatalf("op %d: Pop %+v, model least %+v", pc, got, m[0])
				}
				m = m[1:]
			case b < 208:
				if len(h) == 0 || pc+1 == len(script) {
					continue
				}
				pc++
				i := int(script[pc]) % len(h)
				want := h[i]
				if got := h.Remove(i); got != want || !m.remove(got) {
					t.Fatalf("op %d: Remove(%d) %+v, entry there %+v", pc, i, got, want)
				}
			case b < 254:
				i := h.Max()
				if len(m) == 0 {
					if i != -1 {
						t.Fatalf("op %d: Max of empty heap %d", pc, i)
					}
					continue
				}
				if child(i) < len(h) || h[i] != m[len(m)-1] {
					t.Fatalf("op %d: Max %d %+v, model greatest %+v", pc, i, h[i], m[len(m)-1])
				}
			default:
				h.Reset()
				m = m[:0]
			}
			check(t, "after op", h, m)
		}
	})
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
		if child(i) < len(h) {
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
