package netsim

import (
	"qvisor/internal/obs"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

// Scheduler metric families, labelled by device role and scheduler name:
// what the port sees go into its scheduler and come out, whatever its type.
const (
	MetricSchedEnqueued   = "qvisor_sched_enqueued_total"
	MetricSchedDequeued   = "qvisor_sched_dequeued_total"
	MetricSchedDropped    = "qvisor_sched_dropped_total"
	MetricSchedEvicted    = "qvisor_sched_evicted_total"
	MetricSchedInversions = "qvisor_sched_inversions_total"
	MetricSchedDepthPkts  = "qvisor_sched_queue_depth_packets"
	MetricSchedDepthBytes = "qvisor_sched_queue_depth_bytes"
	MetricSchedSojournNs  = "qvisor_sched_sojourn_ns"
)

// schedSeries is the scheduler series of one (device role, scheduler name),
// shared by the role's ports so the families aggregate across them. It is
// single-writer (the goroutine driving the network) and staged: per-event
// bookkeeping is plain arithmetic in st, published by flush in a handful of
// atomic adds — per-event atomics would cost more than the schedulers' own
// work (cf. Eiffel's insistence on cheap per-packet bookkeeping). A nil
// *schedSeries, the uninstrumented network's, accepts every event.
type schedSeries struct {
	enqueued, dequeued, dropped, evicted, inversions *obs.Counter
	depthPkts, depthBytes                            *obs.Gauge
	sojourn                                          *obs.Histogram

	st seriesStage
}

// seriesStage is what a schedSeries has counted since its last flush.
type seriesStage struct {
	enqueued, dequeued, dropped, evicted, inversions uint64
	// The depth after the role's latest accept or release — not a sum
	// over its ports, and not re-read at flush.
	depthPkts, depthBytes int
	sojourn               [obs.HistogramBuckets + 1]uint64
	sojournSum            int64
}

func newSchedSeries(r *obs.Registry, labels ...obs.Label) *schedSeries {
	return &schedSeries{
		enqueued:   r.Counter(MetricSchedEnqueued, "Packets accepted by the scheduler.", labels...),
		dequeued:   r.Counter(MetricSchedDequeued, "Packets transmitted by the scheduler.", labels...),
		dropped:    r.Counter(MetricSchedDropped, "Packets rejected on arrival.", labels...),
		evicted:    r.Counter(MetricSchedEvicted, "Queued packets removed to admit better-ranked arrivals.", labels...),
		inversions: r.Counter(MetricSchedInversions, "Dequeues that violated global rank order.", labels...),
		depthPkts:  r.Gauge(MetricSchedDepthPkts, "Packets queued at the last metrics flush.", labels...),
		depthBytes: r.Gauge(MetricSchedDepthBytes, "Bytes queued at the last metrics flush.", labels...),
		sojourn:    r.Histogram(MetricSchedSojournNs, "Per-packet queueing delay in simulated nanoseconds (log2 buckets).", labels...),
	}
}

// accepted books a packet q just took in.
func (s *schedSeries) accepted(q sched.Scheduler) {
	if s != nil {
		s.st.enqueued++
		s.st.depthPkts, s.st.depthBytes = q.Len(), q.Bytes()
	}
}

// released books a packet q just handed out after sojourn in the queue.
func (s *schedSeries) released(q sched.Scheduler, sojourn sim.Time) {
	if s != nil {
		s.st.dequeued++
		s.st.depthPkts, s.st.depthBytes = q.Len(), q.Bytes()
		s.st.sojourn[obs.BucketIndex(int64(sojourn))]++
		s.st.sojournSum += int64(sojourn)
	}
}

// lost books a packet the scheduler's drop callback reported: an eviction
// is a queued packet removed, any other cause an arrival refused.
func (s *schedSeries) lost(cause sched.DropCause) {
	if s == nil {
		return
	}
	if cause == sched.CauseEvicted {
		s.st.evicted++
	} else {
		s.st.dropped++
	}
}

// flush publishes the staged counts and resets them; the depth, a level,
// stays. (Inversions reach the stage from Port.flushObs.)
func (s *schedSeries) flush() {
	st := &s.st
	s.enqueued.Add(st.enqueued)
	s.dequeued.Add(st.dequeued)
	s.dropped.Add(st.dropped)
	s.evicted.Add(st.evicted)
	s.inversions.Add(st.inversions)
	s.depthPkts.Set(float64(st.depthPkts))
	s.depthBytes.Set(float64(st.depthBytes))
	s.sojourn.AddBuckets(st.sojourn[:], st.sojournSum)
	*st = seriesStage{depthPkts: st.depthPkts, depthBytes: st.depthBytes}
}
