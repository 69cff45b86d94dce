package sched

import "qvisor/internal/pkt"

// FIFO is a single first-in first-out queue with byte-based tail drop — the
// least capable "existing scheduler" of §3.4 and the worst-case baseline in
// the paper's Figure 4 ("the FIFO scheduler can not prioritize traffic, and
// thus the pFabric policy becomes useless").
type FIFO struct{ bank }

// NewFIFO returns an empty FIFO with the given configuration.
func NewFIFO(cfg Config) *FIFO {
	return &FIFO{newBank(cfg, 1)}
}

// Name implements Scheduler.
func (q *FIFO) Name() string { return "fifo" }

// Enqueue implements Scheduler. Arrivals that would overflow the buffer are
// tail-dropped.
func (q *FIFO) Enqueue(p *pkt.Packet) bool {
	if !q.fits(p) {
		return refuse(&q.stats, q.cfg, p, CauseOverflow)
	}
	return q.put(0, p)
}

// Peek returns the head packet without removing it, or nil when empty.
func (q *FIFO) Peek() *pkt.Packet { return q.queues[0].Peek() }
