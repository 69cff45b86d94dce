package pkt

import "testing"

// drainIDs pops the ring empty and returns the packet IDs in order.
func drainIDs(r *Ring) []uint64 {
	var ids []uint64
	for p := r.Pop(); p != nil; p = r.Pop() {
		ids = append(ids, p.ID)
	}
	return ids
}

func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring
	if r.Pop() != nil || r.Peek() != nil || r.Len() != 0 {
		t.Fatal("zero Ring is not empty")
	}
	next := uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			r.Push(&Packet{ID: next})
			next++
		}
	}
	// Fill the first buffer, pop five so the head sits mid-buffer, then
	// push past capacity: the ring must grow while wrapped.
	push(8)
	for want := uint64(0); want < 5; want++ {
		if p := r.Pop(); p.ID != want {
			t.Fatalf("popped %d, want %d", p.ID, want)
		}
	}
	push(5) // wraps: occupies slots 5,6,7,0,1,2,3,4
	if len(r.buf) != 8 || r.Len() != 8 {
		t.Fatalf("cap %d len %d before growth, want 8/8", len(r.buf), r.Len())
	}
	push(20) // grows 8 → 16 → 32 with a wrapped head
	if c := len(r.buf); c&(c-1) != 0 {
		t.Fatalf("capacity %d is not a power of two", c)
	}
	for i := 0; i < r.Len(); i++ {
		if got := r.At(i).ID; got != uint64(5+i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, 5+i)
		}
	}
	if r.Peek().ID != 5 {
		t.Fatalf("Peek = %d, want 5", r.Peek().ID)
	}
	ids := drainIDs(&r)
	if len(ids) != 28 {
		t.Fatalf("drained %d packets, want 28", len(ids))
	}
	for i, id := range ids {
		if id != uint64(5+i) {
			t.Fatalf("drain[%d] = %d, want %d", i, id, 5+i)
		}
	}
}

func TestRingAtOutOfRange(t *testing.T) {
	var r Ring
	if r.At(0) != nil {
		t.Fatal("At(0) on an empty ring is not nil")
	}
	r.Push(&Packet{ID: 1})
	r.Push(&Packet{ID: 2})
	for _, i := range []int{-1, 2, 7, 8, 1 << 20} {
		if p := r.At(i); p != nil {
			t.Fatalf("At(%d) = %v, want nil", i, p)
		}
	}
	// A popped slot must not stay reachable.
	r.Pop()
	if r.At(1) != nil || r.At(0).ID != 2 {
		t.Fatal("At sees past the tail after a pop")
	}
}

func TestRingResetKeepsCapacityAndDropsReferences(t *testing.T) {
	var r Ring
	for i := 0; i < 40; i++ {
		r.Push(&Packet{ID: uint64(i)})
	}
	for i := 0; i < 10; i++ {
		r.Pop()
	}
	capBefore := len(r.buf)
	r.Reset()
	if r.Len() != 0 || r.Pop() != nil || r.Peek() != nil {
		t.Fatal("ring not empty after Reset")
	}
	if len(r.buf) != capBefore {
		t.Fatalf("Reset changed capacity %d → %d", capBefore, len(r.buf))
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still references a packet after Reset", i)
		}
	}
	// A warm ring takes its old backlog again without allocating.
	p := &Packet{}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 40; i++ {
			r.Push(p)
		}
		for r.Pop() != nil {
		}
	}); n != 0 {
		t.Fatalf("warm ring allocated %v times per run", n)
	}
}
