package sched

import (
	"fmt"

	"qvisor/internal/pkt"
)

// QueueMapper assigns a packet to one of n strict-priority queues
// (0 = highest priority). Mappers are synthesized by QVISOR's deployment
// layer (§3.4: "we can map traffic from T1 to the three highest-priority
// queues, and traffic from T2 and T3 to the two lowest-priority queues").
type QueueMapper func(p *pkt.Packet) int

// MQ is a bank of strict-priority FIFO queues — the scheduler shape exposed
// by commodity switch ASICs. Dequeue always serves the lowest-index
// non-empty queue. Each queue gets an equal share of the configured buffer.
type MQ struct {
	bank
	mapper      QueueMapper
	perQueueCap int
}

// NewMQ returns a bank of n strict-priority FIFO queues using mapper to
// direct arrivals. It panics if n < 1 or mapper is nil.
func NewMQ(cfg Config, n int, mapper QueueMapper) *MQ {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewMQ with n=%d", n))
	}
	if mapper == nil {
		panic("sched: NewMQ with nil mapper")
	}
	return &MQ{bank: newBank(cfg, n), mapper: mapper, perQueueCap: cfg.capacity() / n}
}

// Name implements Scheduler.
func (q *MQ) Name() string { return fmt.Sprintf("mq%d", len(q.queues)) }

// Enqueue implements Scheduler. The mapper chooses the queue; out-of-range
// indices clamp to the extremes. A full queue tail-drops.
func (q *MQ) Enqueue(p *pkt.Packet) bool {
	i := min(max(q.mapper(p), 0), len(q.queues)-1)
	if q.qbytes[i]+p.Size > q.perQueueCap {
		return refuse(&q.stats, q.cfg, p, CauseOverflow)
	}
	return q.put(i, p)
}

// Dequeue implements Scheduler: the bank's strict-priority pop, plus rank
// inversion accounting — a dequeue whose rank exceeds a rank still queued
// anywhere in the bank.
func (q *MQ) Dequeue() *pkt.Packet {
	p := q.bank.Dequeue()
	if p == nil {
		return nil
	}
	for i := range q.queues {
		r := &q.queues[i]
		for j := 0; j < r.Len(); j++ {
			if r.At(j).Rank < p.Rank {
				q.stats.Inversion++
				return p
			}
		}
	}
	return p
}
