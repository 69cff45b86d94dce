package core

import (
	"fmt"
	"slices"

	"qvisor/internal/rank"
)

// Monitor tracks the rank distribution one tenant actually emits, using a
// sliding window of recent observations. The runtime controller uses it to
// (a) learn bounds for tenants whose distribution was not declared or has
// drifted ("online at runtime, based on the latest packets received", §2),
// and (b) detect adversarial workloads that emit ranks far outside their
// declared bounds (§2: "prevent adversarial workloads from potentially
// malicious tenants").
type Monitor struct {
	declared rank.Bounds
	// window holds the last size ranks. It is allocated by the first
	// Observe: a registration that sees no traffic (every update replaces
	// the tenant's monitor) costs no window.
	window  []int64
	size    int
	pos     int
	fill    int
	total   uint64
	outside uint64
}

// NewMonitor returns a monitor with the given sliding-window size (zero
// means 1024) checking against the declared bounds.
func NewMonitor(declared rank.Bounds, windowSize int) *Monitor {
	if windowSize <= 0 {
		windowSize = 1024
	}
	return &Monitor{declared: declared, size: windowSize}
}

// Observe records one emitted rank.
func (m *Monitor) Observe(r int64) {
	if m.window == nil {
		m.window = make([]int64, m.size)
	}
	m.window[m.pos] = r
	m.pos = (m.pos + 1) % len(m.window)
	if m.fill < len(m.window) {
		m.fill++
	}
	m.total++
	if !m.declared.Contains(r) {
		m.outside++
	}
}

// Count returns the total observations.
func (m *Monitor) Count() uint64 { return m.total }

// Declared returns the bounds the monitor checks against.
func (m *Monitor) Declared() rank.Bounds { return m.declared }

// OutsideFraction returns the fraction of all observations that fell
// outside the declared bounds.
func (m *Monitor) OutsideFraction() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.outside) / float64(m.total)
}

// Snapshot summarizes the current window.
type Snapshot struct {
	// Count is the number of ranks in the window.
	Count int
	// Observed is the min/max of the window.
	Observed rank.Bounds
	// P5, P50, P95 are window percentiles.
	P5, P50, P95 int64
}

// String implements fmt.Stringer.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d obs=%v p5=%d p50=%d p95=%d", s.Count, s.Observed, s.P5, s.P50, s.P95)
}

// Snapshot computes window statistics. It returns false when the window is
// empty.
func (m *Monitor) Snapshot() (Snapshot, bool) {
	s, _, ok := m.snapshot(nil)
	return s, ok
}

// snapshot is Snapshot sorting the window in buf, grown as needed and
// returned for the next call.
func (m *Monitor) snapshot(buf []int64) (Snapshot, []int64, bool) {
	if m.fill == 0 {
		return Snapshot{}, buf, false
	}
	buf = append(buf[:0], m.window[:m.fill]...)
	slices.Sort(buf)
	pct := func(p float64) int64 {
		i := int(p * float64(len(buf)-1))
		return buf[i]
	}
	return Snapshot{
		Count:    m.fill,
		Observed: rank.Bounds{Lo: buf[0], Hi: buf[len(buf)-1]},
		P5:       pct(0.05),
		P50:      pct(0.50),
		P95:      pct(0.95),
	}, buf, true
}

// Drift quantifies how far the observed distribution has moved from the
// declared bounds: 0 when the observed 5th–95th percentile band lies inside
// the declared bounds, growing with the excursion relative to the declared
// span. The controller re-synthesizes when Drift exceeds its threshold.
func (m *Monitor) Drift() float64 {
	s, ok := m.Snapshot()
	if !ok {
		return 0
	}
	return m.drift(s)
}

// drift is Drift of the window summarized by s.
func (m *Monitor) drift(s Snapshot) float64 {
	span := m.declared.Span()
	if span <= 0 {
		span = 1
	}
	var excess int64
	if s.P5 < m.declared.Lo {
		excess += m.declared.Lo - s.P5
	}
	if s.P95 > m.declared.Hi {
		excess += s.P95 - m.declared.Hi
	}
	return float64(excess) / float64(span)
}

// LearnedBounds proposes bounds from the observed window, padded by 10% of
// the observed span on each side so minor jitter does not immediately
// re-trigger drift.
func (m *Monitor) LearnedBounds() (rank.Bounds, bool) {
	s, ok := m.Snapshot()
	if !ok {
		return rank.Bounds{}, false
	}
	return learned(s), true
}

// learned is LearnedBounds of the window summarized by s.
func learned(s Snapshot) rank.Bounds {
	pad := s.Observed.Span() / 10
	lo := s.Observed.Lo - pad
	if lo < 0 && s.Observed.Lo >= 0 {
		lo = 0 // ranks are conventionally non-negative; don't invent negatives
	}
	return rank.Bounds{Lo: lo, Hi: s.Observed.Hi + pad}
}
