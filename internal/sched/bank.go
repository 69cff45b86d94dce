package sched

import "qvisor/internal/pkt"

// bank is the one queue bank under the FIFO family — FIFO, AIFO, MQ,
// SP-PIFO, Admission and Calendar: n FIFO rings with per-queue and total
// byte accounting, an O(1) packet count and the Stats counters. A
// discipline embeds a bank and adds only its placement rule: its Enqueue
// picks a queue (or refuses the packet), and dequeueing serves the first
// backlogged queue at or after an index — index 0 for strict priority, the
// rotation cursor for the calendar.
type bank struct {
	cfg    Config
	queues []pkt.Ring
	qbytes []int
	bytes  int
	count  int
	stats  Stats
}

func newBank(cfg Config, n int) bank {
	return bank{cfg: cfg, queues: make([]pkt.Ring, n), qbytes: make([]int, n)}
}

// Len implements Scheduler.
func (b *bank) Len() int { return b.count }

// Bytes implements Scheduler.
func (b *bank) Bytes() int { return b.bytes }

// NumQueues returns the number of queues in the bank.
func (b *bank) NumQueues() int { return len(b.queues) }

// QueueLen returns the packet count of queue i.
func (b *bank) QueueLen(i int) int { return b.queues[i].Len() }

// Stats returns a snapshot of the scheduler's counters.
func (b *bank) Stats() Stats { return b.stats }

// fits reports whether p fits under the bank's total byte capacity.
func (b *bank) fits(p *pkt.Packet) bool { return b.bytes+p.Size <= b.cfg.capacity() }

// put appends p to queue i; it returns true, the accepting Enqueue result.
func (b *bank) put(i int, p *pkt.Packet) bool {
	b.queues[i].Push(p)
	b.qbytes[i] += p.Size
	b.bytes += p.Size
	b.count++
	b.stats.Enqueued++
	return true
}

// popFrom removes the head of the first backlogged queue at or after
// start, wrapping past the last queue, and returns it with that queue's
// index; p is nil when the bank is empty.
func (b *bank) popFrom(start int) (p *pkt.Packet, i int) {
	if b.count == 0 {
		return nil, start
	}
	i = start
	for b.queues[i].Len() == 0 {
		if i++; i == len(b.queues) {
			i = 0
		}
	}
	p = b.queues[i].Pop()
	b.qbytes[i] -= p.Size
	b.bytes -= p.Size
	b.count--
	b.stats.Dequeued++
	return p, i
}

// Dequeue implements Scheduler: strict priority, lowest queue index first.
func (b *bank) Dequeue() *pkt.Packet {
	p, _ := b.popFrom(0)
	return p
}

// Reset implements Scheduler: queues and counters return to their
// freshly-constructed state with the ring buffers kept warm.
func (b *bank) Reset() {
	for i := range b.queues {
		b.queues[i].Reset()
		b.qbytes[i] = 0
	}
	b.bytes, b.count = 0, 0
	b.stats = Stats{}
}
