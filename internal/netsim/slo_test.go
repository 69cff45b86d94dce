package netsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/workload"
)

// steadyStateWatched is steadyState with the fidelity watchdog attached
// at the given sampling rate (nil watchdog when sample is 0).
func steadyStateWatched(tb testing.TB, sample uint64) (*Network, *slo.Watchdog) {
	tb.Helper()
	cfg := tiny([]TenantDef{{
		ID: 1, Name: "cbr", Ranker: &rank.PFabric{},
		Flows: []workload.FlowSpec{
			{Start: 0, Src: 0, Dst: 2, Rate: 400e6},
			{Start: 0, Src: 2, Dst: 0, Rate: 400e6},
		},
	}}, sim.MaxTime/4)
	var w *slo.Watchdog
	if sample > 0 {
		w = slo.New(slo.Config{SampleN: sample})
		cfg.Watch = w
	}
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return n, w
}

// TestWatchdogHealthyEndToEnd: a clean PIFO run must come out OK on
// every SLO, observe traffic on all hook sites, and drain every shadow.
func TestWatchdogHealthyEndToEnd(t *testing.T) {
	w := slo.New(slo.Config{SampleN: 1})
	cfg := tiny([]TenantDef{{
		ID: 1, Name: "t1", Ranker: &rank.PFabric{},
		Flows: []workload.FlowSpec{
			{Start: 0, Src: 0, Dst: 2, Size: 14600},
			{Start: 0, Src: 3, Dst: 1, Size: 29200},
		},
	}}, 10*sim.Millisecond)
	cfg.Watch = w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	snap := w.Snapshot()
	if snap.State != slo.StateOK {
		t.Fatalf("healthy run state = %s, want ok\nhealth: %+v", snap.State, snap.Health)
	}
	g := snap.Global
	if g.SampledEnqueues == 0 || g.SampledDequeues == 0 || g.SampledDelivered == 0 {
		t.Fatalf("hook sites silent: %+v", g)
	}
	// The ideal PIFO backend can still invert across ports (the shadow
	// is per port, the fabric is not), but a clean run must stay within
	// budget — asserted by StateOK above — and leak nothing.
	if got := w.ShadowPackets(); got != 0 {
		t.Errorf("drained run left %d packets in shadow queues", got)
	}
	if snap.Revision == 0 {
		t.Error("revision did not advance")
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].Tenant != "tenant1" {
		t.Errorf("tenants = %+v", snap.Tenants)
	}
}

// TestWatchdogFaultScenarioPages: the acceptance scenario — a seeded
// overload on a low-fidelity FIFO backend (pFabric ranks, FIFO service:
// every size inversion is visible) must drive the inversion SLI over
// budget and flip health to PAGE, deterministically.
func TestWatchdogFaultScenarioPages(t *testing.T) {
	w := slo.New(slo.Config{SampleN: 1})
	cfg := lossyPoisson(t, 11)
	cfg.Scheduler = func(drop sched.DropFn) sched.Scheduler {
		return sched.NewFIFO(sched.Config{CapacityBytes: 15000, OnDrop: drop})
	}
	cfg.Watch = w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	snap := w.Snapshot()
	if snap.State != slo.StatePage {
		t.Fatalf("FIFO overload state = %s, want page\nhealth: %+v", snap.State, snap.Health)
	}
	var inv slo.SLOHealth
	for _, h := range snap.Health {
		if h.Name == slo.SLOInversions {
			inv = h
		}
	}
	if inv.State != slo.StatePage {
		t.Fatalf("inversion SLO = %+v, want page", inv)
	}
	if inv.BurnShort < slo.DefaultPageBurn || inv.BurnLong < slo.DefaultPageBurn {
		t.Errorf("burn rates %g/%g below page threshold", inv.BurnShort, inv.BurnLong)
	}
	if snap.Global.Inversions == 0 || snap.Global.DisplacementP99 <= 0 {
		t.Errorf("inversion SLIs empty: %+v", snap.Global)
	}
	// Determinism: the same seed reproduces the same snapshot bytes.
	w2 := slo.New(slo.Config{SampleN: 1})
	cfg2 := lossyPoisson(t, 11)
	cfg2.Scheduler = cfg.Scheduler
	cfg2.Watch = w2
	n2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	n2.Run()
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(w2.Snapshot())
	if !bytes.Equal(a, b) {
		t.Errorf("same seed, different snapshots:\n%s\n%s", a, b)
	}
}

// TestWatchdogFaultInjectorDivergence: injected faults drop packets the
// ideal would have kept — the drop-divergence SLI must see them.
func TestWatchdogFaultInjectorDivergence(t *testing.T) {
	w := slo.New(slo.Config{SampleN: 1})
	cfg := lossyPoisson(t, 7)
	base := cfg.Scheduler
	count := 0
	cfg.Scheduler = func(drop sched.DropFn) sched.Scheduler {
		return NewFaultInjector(base(drop), func(p *pkt.Packet) bool {
			if p.Kind != pkt.Data {
				return false
			}
			count++
			return count%20 == 0
		}, drop)
	}
	cfg.Watch = w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	snap := w.Snapshot()
	if snap.Global.DropDiverged == 0 {
		t.Fatalf("fault injector produced no drop divergence: %+v", snap.Global)
	}
	found := false
	for _, ts := range snap.Tenants {
		if ts.Drops["fault"] > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no tenant attributed fault drops: %+v", snap.Tenants)
	}
}

// runWatched executes one lossyPoisson run at the given seed, sampling
// rate, and shard count and returns the marshalled SLI snapshot.
func runWatched(t *testing.T, seed int64, sampleN uint64, shards int) []byte {
	t.Helper()
	w := slo.New(slo.Config{SampleN: sampleN})
	cfg := lossyPoisson(t, seed)
	cfg.Shards = shards
	cfg.Watch = w
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run()
	out, err := json.Marshal(w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterWatchdogSLIEquality: the acceptance bar for shard-aware
// aggregation — a 2-shard run reports a byte-identical SLI snapshot to
// the single-threaded reference, including burn-rate health and the
// per-tenant table, at full sampling and 1-in-4 flow sampling.
//
// Scope: the rank-fidelity SLIs (inversions, displacement, divergence)
// are tie-order independent by construction and merge exactly at any
// shard count. The delay SLIs measure real per-packet waiting, so they
// inherit the engine's ordering of same-nanosecond events, which the
// sharded engine only guarantees per shard (the repo-wide contract is
// counters + flow records, see TestClusterMatchesSingleThreaded); this
// scenario has no cross-shard same-ns tie, so the full snapshot matches
// byte for byte. (TestCluster prefix: the CI race job's shard
// determinism steps run this at GOMAXPROCS 1 and 4.)
func TestClusterWatchdogSLIEquality(t *testing.T) {
	for _, sampleN := range []uint64{1, 4} {
		single := runWatched(t, 23, sampleN, 1)
		double := runWatched(t, 23, sampleN, 2)
		if !bytes.Equal(single, double) {
			t.Fatalf("sampleN=%d: sharded SLI snapshot differs from single-threaded:\nsingle: %s\nsharded: %s",
				sampleN, single, double)
		}
	}
}

// TestClusterWatchdogRepeatDeterminism: the unconditional half of the
// determinism story — a 2-shard run must reproduce its own SLI snapshot
// byte for byte across repeats regardless of goroutine interleaving,
// including on a seed whose same-ns tie ordering differs from the
// single-threaded engine's.
func TestClusterWatchdogRepeatDeterminism(t *testing.T) {
	first := runWatched(t, 29, 1, 2)
	for i := 0; i < 3; i++ {
		if again := runWatched(t, 29, 1, 2); !bytes.Equal(first, again) {
			t.Fatalf("repeat %d: sharded SLI snapshot not reproducible:\n%s\n%s", i, first, again)
		}
	}
}

// TestAllocBudgetSimSteadyStateWatchdog: the watchdog's unsampled path
// (no flow hits the 1-in-64 sample in this workload) must keep the
// steady-state slice at zero allocations per op.
func TestAllocBudgetSimSteadyStateWatchdog(t *testing.T) {
	n, _ := steadyStateWatched(t, 64)
	eng := n.Engine()
	now := 5 * sim.Millisecond
	eng.Run(now)
	allocs := testing.AllocsPerRun(200, func() {
		now += 50 * sim.Microsecond
		eng.Run(now)
	})
	if allocs != 0 {
		t.Fatalf("watchdog steady-state slice allocates %.1f objects/op, budget is 0", allocs)
	}
}

// BenchmarkWatchdogOff is the baseline half of the watchdog overhead
// pair: the identical steady-state slice with no watchdog attached.
func BenchmarkWatchdogOff(b *testing.B) {
	n, _ := steadyStateWatched(b, 0)
	benchSteady(b, n)
}

// BenchmarkWatchdogSampled attaches the watchdog at the default 1-in-64
// flow sampling (no flow of this workload is mirrored, so this measures
// the per-event sampling predicate — the overhead budget is <= 3% over
// BenchmarkWatchdogOff, same convention as BenchmarkSimSteadyStateTraced).
func BenchmarkWatchdogSampled(b *testing.B) {
	n, _ := steadyStateWatched(b, 64)
	benchSteady(b, n)
}

// BenchmarkWatchdogMirrored samples every flow — the upper bound where
// 100% of traffic runs through the shadow oracle, not a configuration
// the 3% budget applies to.
func BenchmarkWatchdogMirrored(b *testing.B) {
	n, _ := steadyStateWatched(b, 1)
	benchSteady(b, n)
}

func benchSteady(b *testing.B, n *Network) {
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
	b.ReportMetric(float64(eng.Fired())/float64(b.N), "events/op")
}

// TestSwitchAdmissionDropsReachWatchdog: a tenant outside the joint policy
// under core.UnknownDrop is rejected by the pre-processor at its first
// switch — a drop outside any port scheduler. The watchdog (sampling 1 in
// 1) must book every one of them against the tenant, the flow must keep
// retrying via RTO without ever completing, and packet conservation must
// hold with nothing left in the pool.
func TestSwitchAdmissionDropsReachWatchdog(t *testing.T) {
	pfA := &rank.PFabric{MaxFlowBytes: 1 << 20}
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: 1, Name: "a", Algorithm: pfA},
	}, policy.MustParse("a"), core.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tiny([]TenantDef{
		{ID: 1, Name: "a", Ranker: pfA, Flows: []workload.FlowSpec{
			{Start: 0, Src: 0, Dst: 2, Size: 30000},
		}},
		{ID: 2, Name: "b", Ranker: &rank.PFabric{MaxFlowBytes: 1 << 20}, Flows: []workload.FlowSpec{
			{Start: 0, Src: 1, Dst: 3, Size: 30000},
		}},
	}, 10*sim.Millisecond)
	pp := core.NewPreprocessor(jp, core.UnknownDrop)
	w := slo.New(slo.Config{SampleN: 1})
	cfg.Preprocessor, cfg.Watch = pp, w
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if a, b := n.FCTs().Tenant("a"), n.FCTs().Tenant("b"); len(a) != 1 || len(b) != 0 {
		t.Fatalf("completed flows: known tenant %d (want 1), unknown tenant %d (want 0)", len(a), len(b))
	}
	c := n.Counters()
	if c.Dropped == 0 || c.Retransmits == 0 {
		t.Fatalf("no admission drops or no RTO recovery: %+v", c)
	}
	if st := pp.Stats(); st.Unknown != c.Dropped {
		t.Fatalf("pre-processor rejected %d packets, network dropped %d", st.Unknown, c.Dropped)
	}
	snap := w.Snapshot()
	var booked uint64
	for _, ts := range snap.Tenants {
		if ts.Tenant == "tenant2" {
			booked = ts.Drops[sched.CauseAdmission.String()]
		} else if len(ts.Drops) != 0 {
			t.Errorf("drops booked against %s: %v", ts.Tenant, ts.Drops)
		}
	}
	if booked != c.Dropped || snap.Global.SampledDrops != c.Dropped {
		t.Fatalf("watchdog booked %d admission drops (%d sampled drops in all), counters have %d",
			booked, snap.Global.SampledDrops, c.Dropped)
	}
	if sent := c.DataSent + c.Retransmits + c.AcksSent + c.CBRSent; c.Delivered+c.Dropped != sent {
		t.Fatalf("conservation violated: sent=%d delivered+dropped=%d (%+v)", sent, c.Delivered+c.Dropped, c)
	}
	if out := n.Pool().Outstanding(); out != 0 {
		t.Fatalf("pool outstanding = %d after run, want 0 (switch drop leaked)", out)
	}
}
