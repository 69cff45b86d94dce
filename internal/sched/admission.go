package sched

import (
	"fmt"
	"slices"

	"qvisor/internal/pkt"
)

// Admission is a combined admission-and-scheduling discipline in the style
// of PACKS ("Everything Matters in Programmable Packet Scheduling", Alcoz
// et al.): a bank of strict-priority FIFO queues fronted by rank-aware
// admission control with *dynamic per-queue bounds*. The insight of that
// work is that under a limited number of queues, admission and scheduling
// must be co-designed — dropping the right packets at enqueue buys more
// ordering fidelity than any queue-mapping rule alone.
//
// Like AIFO, the discipline tracks a sliding window of recently observed
// ranks. The window serves two purposes:
//
//   - Admission: a packet is admitted only if its rank quantile fits the
//     remaining buffer headroom (inflated by a burstiness allowance k),
//     exactly AIFO's rule. Rank-based rejections report CauseAdmission;
//     rejections for lack of buffer space report CauseOverflow.
//   - Mapping: the admitted rank distribution is split into n quantile
//     bands, one per queue; queue i's dynamic bound is the window rank at
//     quantile (i+1)/n. An admitted packet joins the first queue whose
//     bound covers its rank, so the queue boundaries track the offered
//     load instead of being fixed at synthesis time.
//
// Bounds are refreshed every UpdateEvery arrivals from a sorted snapshot
// of the window, amortizing the sort; they are monotone non-decreasing by
// construction (quantiles of one sorted sample). Until the window first
// fills, the discipline admits everything and behaves as a single FIFO
// (queue 0), again like AIFO's cold start. With one queue there is nothing
// left to map and the discipline is AIFO itself: NewAIFO builds it so.
type Admission struct {
	bank
	name   string
	bounds []int64 // bounds[i]: highest rank mapped to queue i (dynamic)
	warm   bool    // window filled at least once; bounds are live

	window  []int64 // circular buffer of recent ranks
	sorted  []int64 // scratch for the quantile refresh (kept warm)
	wpos    int
	wfill   int
	k       float64
	refresh int // arrivals until the next bound refresh
	every   int
}

// AdmissionConfig parametrizes the combined admission+scheduling backend.
type AdmissionConfig struct {
	Config
	// Queues is the number of strict-priority FIFO queues. Zero means 8, a
	// common per-port queue count on commodity switches.
	Queues int
	// WindowSize is the number of recent ranks used for quantile
	// estimation. Zero means 64 (the sample size of AIFO's prototype).
	WindowSize int
	// Burst is the admission burstiness allowance k in [0,1); larger k
	// admits more aggressively. Zero means 0.1.
	Burst float64
	// UpdateEvery is the number of arrivals between per-queue bound
	// refreshes. Zero means 16; 1 refreshes on every arrival.
	UpdateEvery int
}

// NewAdmission returns an admission-aware strict-priority scheduler. It
// panics on Queues < 0, Burst outside [0,1), or UpdateEvery < 0.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Queues == 0 {
		cfg.Queues = 8
	}
	if cfg.Queues < 1 {
		panic(fmt.Sprintf("sched: NewAdmission with queues=%d", cfg.Queues))
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 64
	}
	if cfg.Burst == 0 {
		cfg.Burst = 0.1
	}
	if cfg.Burst < 0 || cfg.Burst >= 1 {
		panic("sched: Admission burst parameter must be in [0,1)")
	}
	if cfg.UpdateEvery == 0 {
		cfg.UpdateEvery = 16
	}
	if cfg.UpdateEvery < 0 {
		panic(fmt.Sprintf("sched: NewAdmission with updateEvery=%d", cfg.UpdateEvery))
	}
	return &Admission{
		bank:   newBank(cfg.Config, cfg.Queues),
		name:   fmt.Sprintf("admission%d", cfg.Queues),
		bounds: make([]int64, cfg.Queues),
		window: make([]int64, cfg.WindowSize),
		sorted: make([]int64, cfg.WindowSize),
		k:      cfg.Burst,
		every:  cfg.UpdateEvery,
	}
}

// Name implements Scheduler.
func (q *Admission) Name() string { return q.name }

// Bound returns queue i's current dynamic rank bound (the highest rank the
// queue accepts), for tests and inspection. Meaningful once the window has
// filled; before that every packet maps to queue 0.
func (q *Admission) Bound(i int) int64 { return q.bounds[i] }

// Warm reports whether the rank window has filled at least once, i.e. the
// quantile admission rule and the dynamic bounds are active.
func (q *Admission) Warm() bool { return q.warm }

// Enqueue implements Scheduler: quantile admission, then dynamic-bound
// queue mapping. Exactly one drop callback fires for a refused packet —
// CauseOverflow when the buffer lacks space, CauseAdmission when the rank
// quantile exceeds the admissible headroom.
func (q *Admission) Enqueue(p *pkt.Packet) bool {
	cap := q.cfg.capacity()
	admit := q.bytes+p.Size <= cap
	cause := CauseOverflow
	if admit && q.warm {
		// AIFO's admission rule: admit iff the rank's quantile is within
		// the free fraction of the buffer, inflated by 1/(1-k).
		quant := q.quantile(p.Rank)
		headroom := float64(cap-q.bytes) / float64(cap)
		if quant > headroom/(1-q.k) {
			admit = false
			cause = CauseAdmission
		}
	}
	// Observe every arrival, admitted or not, so the window reflects the
	// offered load rather than the survivors.
	q.observe(p.Rank)
	if !admit {
		return refuse(&q.stats, q.cfg, p, cause)
	}
	return q.put(q.queueFor(p.Rank), p)
}

// queueFor maps a rank to its strict-priority queue: the first queue whose
// dynamic bound covers the rank; ranks beyond every bound take the last
// queue. Cold start (window not yet filled) maps everything to queue 0.
func (q *Admission) queueFor(rank int64) int {
	if !q.warm {
		return 0
	}
	last := len(q.bounds) - 1
	for i := 0; i < last; i++ {
		if rank <= q.bounds[i] {
			return i
		}
	}
	return last
}

func (q *Admission) observe(rank int64) {
	q.window[q.wpos] = rank
	q.wpos = (q.wpos + 1) % len(q.window)
	if q.wfill < len(q.window) {
		q.wfill++
	}
	q.refresh--
	if q.refresh <= 0 || (!q.warm && q.wfill == len(q.window)) {
		q.refreshBounds()
		q.refresh = q.every
	}
}

// refreshBounds recomputes the per-queue bounds as quantiles of the sorted
// window snapshot: bound[i] is the window rank at quantile (i+1)/n, so the
// bounds are monotone non-decreasing by construction and the queues split
// the observed rank distribution into n equal-probability bands.
func (q *Admission) refreshBounds() {
	if q.wfill < len(q.window) {
		return // cold: keep FIFO behaviour until the sample is full
	}
	q.warm = true
	if len(q.bounds) == 1 {
		// One queue places nothing by bound, and the sort would double
		// AIFO's per-packet cost (≈60 → ≈120 ns enqueue+dequeue).
		return
	}
	copy(q.sorted, q.window)
	slices.Sort(q.sorted)
	n := len(q.sorted)
	for i := range q.bounds {
		// Index of quantile (i+1)/n, clamped to the last sample.
		idx := (i + 1) * n / len(q.bounds)
		if idx > 0 {
			idx--
		}
		q.bounds[i] = q.sorted[idx]
	}
}

// quantile returns the fraction of windowed ranks strictly smaller than r.
func (q *Admission) quantile(r int64) float64 {
	if q.wfill == 0 {
		return 0
	}
	smaller := 0
	for i := 0; i < q.wfill; i++ {
		if q.window[i] < r {
			smaller++
		}
	}
	return float64(smaller) / float64(q.wfill)
}

// Reset implements Scheduler: the bank empties, and the rank window and the
// dynamic bounds return to their cold state — as if freshly constructed,
// with rings and scratch buffers kept warm.
func (q *Admission) Reset() {
	q.bank.Reset()
	clear(q.bounds)
	q.warm = false
	q.wpos = 0
	q.wfill = 0
	q.refresh = 0
}

var _ Scheduler = (*Admission)(nil)
