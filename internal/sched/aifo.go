package sched

// AIFOConfig parametrizes AIFO's admission control.
type AIFOConfig struct {
	Config
	// WindowSize is the number of recent ranks used for quantile
	// estimation. Zero means 64 (the sample size used in the AIFO paper's
	// hardware prototype).
	WindowSize int
	// Burst is the burstiness allowance k in [0,1). Larger k admits more
	// aggressively. Zero means 0.1.
	Burst float64
}

// NewAIFO returns an AIFO queue (Yu et al., SIGCOMM 2021 — reference [41]
// of the QVISOR paper), which approximates a PIFO with a single FIFO queue
// plus rank-aware admission control. Instead of sorting, AIFO drops at
// enqueue time the packets a PIFO would have dropped: it tracks a sliding
// window of recent ranks and admits a packet only if its rank quantile is
// within the fraction of the queue that is still free, inflated by a
// burstiness allowance:
//
//	quantile(p.Rank) <= (1/(1-k)) * (C - c) / C
//
// where C is the queue capacity, c the current occupancy, and k in [0,1)
// the burstiness parameter. That is Admission's gate in front of one queue,
// so AIFO is built as exactly that — an Admission bank of one queue, named
// "aifo". It panics on Burst outside [0,1).
func NewAIFO(cfg AIFOConfig) *Admission {
	q := NewAdmission(AdmissionConfig{
		Config: cfg.Config, Queues: 1, WindowSize: cfg.WindowSize, Burst: cfg.Burst,
	})
	q.name = "aifo"
	return q
}
