package netsim

import (
	"testing"

	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/workload"
)

// steadyStateAdmission is steadyState with the combined
// admission+scheduling backend on every port: the per-packet path adds
// the quantile admission gate, the rank-window update, and the periodic
// dynamic-bound refresh, all of which must stay inside the
// zero-allocation budget.
func steadyStateAdmission(tb testing.TB) *Network {
	tb.Helper()
	cfg := tiny([]TenantDef{{
		ID: 1, Name: "cbr", Ranker: &rank.PFabric{},
		Flows: []workload.FlowSpec{
			{Start: 0, Src: 0, Dst: 2, Rate: 400e6},
			{Start: 0, Src: 2, Dst: 0, Rate: 400e6},
		},
	}}, sim.MaxTime/4)
	cfg.Scheduler = func(drop sched.DropFn) sched.Scheduler {
		return sched.NewAdmission(sched.AdmissionConfig{
			Config: sched.Config{OnDrop: drop},
		})
	}
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestAllocBudgetSimSteadyStateAdmission: advancing a warmed simulation
// running on the admission backend must not allocate, matching the other
// seven disciplines' budget (the admission window, scratch sort buffer,
// and queue rings are all preallocated and kept warm).
func TestAllocBudgetSimSteadyStateAdmission(t *testing.T) {
	n := steadyStateAdmission(t)
	eng := n.Engine()
	now := 5 * sim.Millisecond
	eng.Run(now) // warm: pools, rings, the rank window, and the bound refresh
	allocs := testing.AllocsPerRun(200, func() {
		now += 50 * sim.Microsecond
		eng.Run(now)
	})
	if allocs != 0 {
		t.Fatalf("admission steady-state slice allocates %.1f objects/op, budget is 0", allocs)
	}
}

// BenchmarkSimSteadyStateAdmission is BenchmarkSimSteadyState on the
// admission+scheduling backend; allocs/op must report 0 (pinned by
// TestAllocBudgetSimSteadyStateAdmission in the CI alloc-regression job).
func BenchmarkSimSteadyStateAdmission(b *testing.B) {
	n := steadyStateAdmission(b)
	eng := n.Engine()
	now := 5 * sim.Millisecond
	eng.Run(now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * sim.Microsecond
		eng.Run(now)
	}
	b.StopTimer()
	perSlice := float64(eng.Fired()) / float64(b.N)
	b.ReportMetric(perSlice, "events/op")
}
