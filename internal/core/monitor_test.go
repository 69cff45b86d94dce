package core

import (
	"math/rand"
	"sort"
	"testing"

	"qvisor/internal/rank"
)

// refMonitor is the Monitor that allocated its window in NewMonitor and
// sorted with sort.Slice, kept verbatim (renamed) as the reference
// TestMonitorMatchesParent runs the current one against.
type refMonitor struct {
	declared rank.Bounds
	window   []int64
	pos      int
	fill     int
	total    uint64
	outside  uint64
}

// newRefMonitor returns a monitor with the given sliding-window size (zero
// means 1024) checking against the declared bounds.
func newRefMonitor(declared rank.Bounds, windowSize int) *refMonitor {
	if windowSize <= 0 {
		windowSize = 1024
	}
	return &refMonitor{declared: declared, window: make([]int64, windowSize)}
}

// Observe records one emitted rank.
func (m *refMonitor) Observe(r int64) {
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
func (m *refMonitor) Count() uint64 { return m.total }

// Declared returns the bounds the monitor checks against.
func (m *refMonitor) Declared() rank.Bounds { return m.declared }

// OutsideFraction returns the fraction of all observations that fell
// outside the declared bounds.
func (m *refMonitor) OutsideFraction() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.outside) / float64(m.total)
}

// Snapshot computes window statistics. It returns false when the window is
// empty.
func (m *refMonitor) Snapshot() (Snapshot, bool) {
	if m.fill == 0 {
		return Snapshot{}, false
	}
	buf := make([]int64, m.fill)
	copy(buf, m.window[:m.fill])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
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
	}, true
}

// Drift quantifies how far the observed distribution has moved from the
// declared bounds: 0 when the observed 5th–95th percentile band lies inside
// the declared bounds, growing with the excursion relative to the declared
// span. The controller re-synthesizes when Drift exceeds its threshold.
func (m *refMonitor) Drift() float64 {
	s, ok := m.Snapshot()
	if !ok {
		return 0
	}
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
func (m *refMonitor) LearnedBounds() (rank.Bounds, bool) {
	s, ok := m.Snapshot()
	if !ok {
		return rank.Bounds{}, false
	}
	pad := s.Observed.Span() / 10
	lo := s.Observed.Lo - pad
	if lo < 0 && s.Observed.Lo >= 0 {
		lo = 0 // ranks are conventionally non-negative; don't invent negatives
	}
	return rank.Bounds{Lo: lo, Hi: s.Observed.Hi + pad}, true
}

// monitorSink keeps NewMonitor's result on the heap in the alloc count.
var monitorSink *Monitor

// TestMonitorMatchesParent runs the monitor in lockstep with refMonitor,
// over empty, one-rank, almost-full and thrice-wrapped windows of ranks in
// and out of the declared bounds, and requires every reading to agree. A
// monitor that observed nothing allocates itself and no window.
func TestMonitorMatchesParent(t *testing.T) {
	declared := []rank.Bounds{{Lo: 0, Hi: 100}, {Lo: 5, Hi: 5}, {Lo: -50, Hi: 50}}
	for _, size := range []int{0, 1, 2, 7, 64} {
		window := size
		if window == 0 {
			window = 1024
		}
		for di, b := range declared {
			for _, n := range []int{0, 1, window - 1, 3 * window} {
				rng := rand.New(rand.NewSource(int64(size*1000 + di*10 + n)))
				m, ref := NewMonitor(b, size), newRefMonitor(b, size)
				check := func(step int) {
					t.Helper()
					if m.Count() != ref.Count() || m.OutsideFraction() != ref.OutsideFraction() ||
						m.Declared() != ref.Declared() || m.Drift() != ref.Drift() {
						t.Fatalf("window %d, bounds %v, step %d: count %d/%d outside %v/%v drift %v/%v",
							size, b, step, m.Count(), ref.Count(), m.OutsideFraction(), ref.OutsideFraction(), m.Drift(), ref.Drift())
					}
					s, ok := m.Snapshot()
					rs, rok := ref.Snapshot()
					lb, lok := m.LearnedBounds()
					rlb, rlok := ref.LearnedBounds()
					if s != rs || ok != rok || lb != rlb || lok != rlok {
						t.Fatalf("window %d, bounds %v, step %d: snapshot %v %v / %v %v, learned %v %v / %v %v",
							size, b, step, s, ok, rs, rok, lb, lok, rlb, rlok)
					}
				}
				check(0)
				for i := 1; i <= n; i++ {
					r := b.Lo + rng.Int63n(b.Span()+1)
					if rng.Intn(4) == 0 {
						r = b.Hi + 1 + rng.Int63n(1000) // out of bounds, above
					} else if rng.Intn(8) == 0 {
						r = b.Lo - 1 - rng.Int63n(1000) // out of bounds, below
					}
					m.Observe(r)
					ref.Observe(r)
					if window <= 64 || i == n {
						check(i)
					}
				}
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { monitorSink = NewMonitor(rank.Bounds{Lo: 0, Hi: 100}, 1024) }); a != 1 {
		t.Fatalf("NewMonitor allocates %v objects, want 1", a)
	}
}

// BenchmarkControllerCheck measures one Check at 1024 tenants in tiers of
// 32 whose windows (1024 ranks each) are full and in bounds: every tenant
// is summarized and none drifts.
func BenchmarkControllerCheck(b *testing.B) {
	tenants, spec := benchPolicy(b, 1024)
	c, _, err := NewController(tenants, spec, ControllerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, tn := range tenants {
		for i := 0; i < 1024; i++ {
			c.Observe(tn.ID, rng.Int63n(65_536))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if changed, err := c.Check(0); err != nil || changed {
			b.Fatalf("Check = %v, %v", changed, err)
		}
	}
}
