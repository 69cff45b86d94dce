package sched

import (
	"fmt"

	"qvisor/internal/pkt"
)

// SPPIFO approximates a PIFO on a bank of strict-priority FIFO queues using
// the SP-PIFO push-up/push-down adaptation (Alcoz et al., NSDI 2020) —
// reference [3] of the QVISOR paper and one of the "existing schedulers"
// QVISOR targets in §3.4.
//
// Each queue i keeps a bound q[i], the rank of the last packet mapped to
// it. An arriving packet scans from the lowest-priority queue towards the
// highest and joins the first queue whose bound does not exceed its rank,
// pushing the bound up to its rank. If even the highest-priority queue's
// bound exceeds the rank (an inversion), the packet joins that queue and
// every bound is decreased by the magnitude of the inversion (push-down).
type SPPIFO struct {
	bank
	bounds []int64
}

// NewSPPIFO returns an SP-PIFO with n strict-priority queues. It panics if
// n < 1.
func NewSPPIFO(cfg Config, n int) *SPPIFO {
	if n < 1 {
		panic(fmt.Sprintf("sched: NewSPPIFO with n=%d", n))
	}
	return &SPPIFO{bank: newBank(cfg, n), bounds: make([]int64, n)}
}

// Name implements Scheduler.
func (q *SPPIFO) Name() string { return fmt.Sprintf("sppifo%d", len(q.queues)) }

// Bound returns queue i's current rank bound (for tests and inspection).
func (q *SPPIFO) Bound(i int) int64 { return q.bounds[i] }

// Enqueue implements Scheduler using the SP-PIFO mapping algorithm.
func (q *SPPIFO) Enqueue(p *pkt.Packet) bool {
	if !q.fits(p) {
		return refuse(&q.stats, q.cfg, p, CauseOverflow)
	}
	// Scan from the lowest-priority queue (highest index) towards the
	// highest-priority queue (index 0).
	for i := len(q.bounds) - 1; i >= 0; i-- {
		if q.bounds[i] <= p.Rank {
			q.bounds[i] = p.Rank
			return q.put(i, p)
		}
	}
	// Inversion: even queue 0's bound exceeds the rank. Enqueue at the
	// top and push all bounds down by the inversion magnitude.
	cost := q.bounds[0] - p.Rank
	q.stats.Inversion++
	for i := range q.bounds {
		q.bounds[i] -= cost
	}
	return q.put(0, p)
}

// Reset implements Scheduler: the bank empties and all bounds return to
// zero, as if freshly constructed.
func (q *SPPIFO) Reset() {
	q.bank.Reset()
	clear(q.bounds)
}
