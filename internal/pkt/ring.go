package pkt

// Ring is a growable FIFO of packets: the one queue primitive under the
// scheduler queue banks (internal/sched) and the simulator's wires
// (internal/netsim). The zero value is an empty ring. Capacity is zero or
// a power of two, so positions wrap with a mask; a ring grows by doubling
// and never shrinks, which keeps a warm ring allocation-free.
type Ring struct {
	buf  []*Packet
	head int
	n    int
}

// Len returns the number of queued packets.
func (r *Ring) Len() int { return r.n }

// Push appends p at the tail.
func (r *Ring) Push(p *Packet) {
	if r.n == len(r.buf) {
		next := make([]*Packet, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = next, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// Pop removes and returns the head packet, or nil when the ring is empty.
func (r *Ring) Pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Peek returns the head packet without removing it, or nil when empty.
func (r *Ring) Peek() *Packet { return r.At(0) }

// At returns the i-th packet from the head (0 = next to pop), or nil when
// i is out of range.
func (r *Ring) At(i int) *Packet {
	if i < 0 || i >= r.n {
		return nil
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Reset empties the ring, dropping its packet references but keeping the
// backing buffer, so a reused owner starts warm.
func (r *Ring) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}
