package netsim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/leaktest"
	"qvisor/internal/obs"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
	"qvisor/internal/workload"
)

// shardScenario is the reference workload of the sharding tests: a
// 4-leaf/2-spine fabric with Poisson size-based traffic crossing leaf
// pods plus a CBR deadline tenant, so handoffs carry data, acks, and
// datagrams in both directions.
func shardScenario(t testing.TB, horizon sim.Time) Config {
	t.Helper()
	flows, err := workload.Poisson(workload.PoissonConfig{
		Hosts: 8, Load: 0.35, AccessBitsPerSec: 1e9,
		Sizes: workload.DataMining().Scaled(0.001), Horizon: horizon, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Leaves:       4,
		Spines:       2,
		HostsPerLeaf: 2,
		AccessBps:    1e9,
		FabricBps:    4e9,
		Horizon:      horizon,
		Tenants: []TenantDef{
			{ID: 1, Name: "t1", Ranker: &rank.PFabric{}, Flows: flows},
			{ID: 2, Name: "t2", Ranker: &rank.EDF{}, Flows: []workload.FlowSpec{
				{Start: 0, Src: 0, Dst: 6, Rate: 2e8, DeadlineBudget: sim.Millisecond},
				{Start: 0, Src: 5, Dst: 1, Rate: 2e8, DeadlineBudget: sim.Millisecond},
			}},
		},
	}
}

// sortedRecords returns the FCT records in the deterministic global
// order (End, Start, ID) so single- and multi-shard runs compare 1:1.
func sortedRecords(c *stats.Collector) []stats.FlowRecord {
	recs := append([]stats.FlowRecord(nil), c.Records()...)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].End != recs[j].End {
			return recs[i].End < recs[j].End
		}
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].ID < recs[j].ID
	})
	return recs
}

// TestClusterMatchesSingleThreaded is the fidelity contract of the
// tentpole: the sharded engine is an execution strategy, not a model
// change. Every flow must complete with the same completion time, and
// the network-wide counters must agree exactly, at every shard count.
func TestClusterMatchesSingleThreaded(t *testing.T) {
	horizon := 20 * sim.Millisecond
	ref, err := New(shardScenario(t, horizon))
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()
	refRecs := sortedRecords(ref.FCTs())
	if len(refRecs) == 0 {
		t.Fatal("reference run completed no flows")
	}
	for _, shards := range []int{2, 3, 4} {
		cfg := shardScenario(t, horizon)
		cfg.Shards = shards
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		if got, want := c.Counters(), ref.Counters(); got != want {
			t.Fatalf("shards=%d counters diverge:\n got %+v\nwant %+v", shards, got, want)
		}
		recs := sortedRecords(c.FCTs())
		if len(recs) != len(refRecs) {
			t.Fatalf("shards=%d completed %d flows, reference %d", shards, len(recs), len(refRecs))
		}
		for i := range recs {
			if recs[i] != refRecs[i] {
				t.Fatalf("shards=%d record %d diverges:\n got %+v\nwant %+v", shards, i, recs[i], refRecs[i])
			}
		}
		if st := c.CoordStats(); st.Messages == 0 {
			t.Fatalf("shards=%d exchanged no cross-shard messages — partitioning is broken", shards)
		}
		c.Close()
	}
}

// TestClusterOneShardByteIdentical pins the degenerate case: one shard
// under the coordinator must reproduce the plain Network exactly,
// including per-port telemetry — the coordinator only chops Run into
// windows, it must not change what runs.
func TestClusterOneShardByteIdentical(t *testing.T) {
	horizon := 10 * sim.Millisecond
	ref, err := New(shardScenario(t, horizon))
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()

	cfg := shardScenario(t, horizon)
	cfg.Shards = 1
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run()

	if got, want := c.Counters(), ref.Counters(); got != want {
		t.Fatalf("counters diverge:\n got %+v\nwant %+v", got, want)
	}
	ra, rb := ref.FCTs().Records(), c.FCTs().Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	pa, pb := ref.PortStats(), c.PortStats()
	if len(pa) != len(pb) {
		t.Fatalf("port counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("port %d stats differ:\n got %+v\nwant %+v", i, pb[i], pa[i])
		}
	}
}

// TestClusterDeterministicRepeat: two runs of the same sharded config
// are identical. CI runs this under -race at GOMAXPROCS=1 and 4; the
// results must not depend on goroutine interleaving.
func TestClusterDeterministicRepeat(t *testing.T) {
	run := func() (Counters, []stats.FlowRecord) {
		cfg := shardScenario(t, 15*sim.Millisecond)
		cfg.Shards = 4
		cfg.ShardChanCap = 8 // tiny channel: exercise mid-window draining
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Run()
		return c.Counters(), c.FCTs().Records()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Fatalf("counters nondeterministic: %+v vs %+v", c1, c2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d nondeterministic: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestClusterHandoffConservation: under drop-heavy load, packet
// conservation must hold globally with ownership transfers in flight —
// every wire packet delivered or dropped exactly once, every pool
// drained, and the Lend/Adopt ledgers balanced across shards.
func TestClusterHandoffConservation(t *testing.T) {
	cfg := shardScenario(t, 20*sim.Millisecond)
	cfg.Shards = 2
	cfg.Scheduler = func(drop sched.DropFn) sched.Scheduler {
		return sched.NewPIFO(sched.Config{CapacityBytes: 20000, OnDrop: drop})
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run()
	ct := c.Counters()
	sent := ct.DataSent + ct.Retransmits + ct.AcksSent + ct.CBRSent
	if got := ct.Delivered + ct.Dropped; got != sent {
		t.Fatalf("conservation violated: sent=%d delivered+dropped=%d (%+v)", sent, got, ct)
	}
	if ct.Dropped == 0 {
		t.Fatal("test meant to exercise drops but none occurred")
	}
	if out := c.Outstanding(); out != 0 {
		t.Fatalf("outstanding = %d after drain, want 0 (leak or double release across handoff)", out)
	}
	var lent, adopted uint64
	for i := 0; i < c.Shards(); i++ {
		st := c.Shard(i).Pool().Stats()
		lent += st.Lent
		adopted += st.Adopted
	}
	if lent == 0 {
		t.Fatal("no cross-shard handoffs happened — scenario does not exercise the transfer path")
	}
	if lent != adopted {
		t.Fatalf("transfer ledger unbalanced: lent=%d adopted=%d (a packet was lost on the wire between pools)", lent, adopted)
	}
}

// TestClusterNoGoroutineLeak: building, running, and closing a cluster
// must release every shard worker.
func TestClusterNoGoroutineLeak(t *testing.T) {
	defer leaktest.Check(t)()
	cfg := shardScenario(t, 5*sim.Millisecond)
	cfg.Shards = 3
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	c.Close()
	c.Close() // idempotent
}

// TestClusterTraceMerge: per-shard flight recorders merge into the
// parent in (time, shard) order, with shard ids stamped on the events.
func TestClusterTraceMerge(t *testing.T) {
	cfg := shardScenario(t, 5*sim.Millisecond)
	cfg.Shards = 2
	rec := trace.NewFlightRecorder(trace.Options{})
	cfg.Trace = rec
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run()
	events, _ := rec.Snapshot(trace.AllEvents)
	if len(events) == 0 {
		t.Fatal("no events merged into the parent recorder")
	}
	shardsSeen := map[int]bool{}
	for i, e := range events {
		shardsSeen[e.Shard] = true
		if i > 0 {
			prev := events[i-1]
			if e.TimeNs < prev.TimeNs || (e.TimeNs == prev.TimeNs && e.Shard < prev.Shard) {
				t.Fatalf("merge order violated at %d: (%d,%d) after (%d,%d)",
					i, e.TimeNs, e.Shard, prev.TimeNs, prev.Shard)
			}
		}
	}
	if !shardsSeen[0] || !shardsSeen[1] {
		t.Fatalf("expected events from both shards, saw %v", shardsSeen)
	}
}

// TestClusterValidation pins the sharded-mode constraint errors.
func TestClusterValidation(t *testing.T) {
	base := func() Config { return shardScenario(t, sim.Millisecond) }

	cfg := base()
	cfg.Shards = cfg.Leaves + 1
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("shards > leaves must be rejected")
	}

	cfg = base()
	cfg.Shards = 2
	cfg.Engine = sim.New()
	if _, err := NewCluster(cfg); err == nil {
		t.Fatal("shared Engine must be rejected in sharded mode")
	}

	cfg = base()
	cfg.Shards = 2
	cfg.Pool = nil
	cfg.Engine = nil
	cfg.Controller = nil
	if _, err := NewCluster(cfg); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}

	cfg = base()
	cfg.Shards = -1
	if _, err := Build(cfg); err == nil {
		t.Fatal("negative shard count must be rejected")
	}

	// A ranker with per-flow state may not be called from two shards: with
	// two shards over four leaves, hosts 0-3 and 4-7 are separate pods.
	stfq := func(srcs ...int) Config {
		cfg := base()
		cfg.Shards = 2
		var flows []workload.FlowSpec
		for _, src := range srcs {
			flows = append(flows, workload.FlowSpec{Src: src, Dst: (src + 2) % 8, Size: 3000})
		}
		cfg.Tenants = []TenantDef{{ID: 1, Name: "fair", Ranker: rank.NewSTFQ(), Flows: flows}}
		return cfg
	}
	if _, err := Build(stfq(0, 5)); err == nil || !strings.Contains(err.Error(), "per-flow state") {
		t.Fatalf("STFQ sourced in two shards must be rejected, got %v", err)
	}
	for _, cfg := range []Config{stfq(0, 3), stfq(4, 7)} {
		s, err := Build(cfg)
		if err != nil {
			t.Fatalf("STFQ sourced in one shard rejected: %v", err)
		}
		s.Close()
	}
	cfg = stfq(0, 5)
	cfg.Shards = 1
	if _, err := Build(cfg); err != nil {
		t.Fatalf("STFQ on the single-threaded engine rejected: %v", err)
	}
}

// TestBuildFacade: Build picks the engine from the config.
func TestBuildFacade(t *testing.T) {
	cfg := shardScenario(t, sim.Millisecond)
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Network); !ok {
		t.Fatalf("Shards=0 built %T, want *Network", s)
	}
	s.Close()
	cfg.Shards = 2
	s, err = Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*Cluster); !ok {
		t.Fatalf("Shards=2 built %T, want *Cluster", s)
	}
	s.Close()
}

// BenchmarkClusterScaling is the 1-vs-N-shard pair; `bash bench/run.sh`
// measures the same thing end to end as the fabric_sharded workload
// (sim.coord_speedup_vs_1 in BENCHMARK.json). On a multi-core machine
// N-shard wall time should shrink toward 1/N of single-shard; on one
// core it measures the coordinator's overhead instead.
func BenchmarkClusterScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := shardScenario(b, 20*sim.Millisecond)
				cfg.Shards = shards
				var s Sim
				var err error
				if shards == 1 {
					s, err = New(cfg)
				} else {
					s, err = NewCluster(cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s.Run()
				b.StopTimer()
				s.Close()
			}
		})
	}
}

// TestClusterShardMetrics: a sharded run with a registry publishes the
// coordinator telemetry families, and FlushMetrics between runs reports
// deltas, not cumulative re-counts.
func TestClusterShardMetrics(t *testing.T) {
	cfg := shardScenario(t, 5*sim.Millisecond)
	cfg.Shards = 2
	cfg.Registry = obs.NewRegistry()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run()

	snap := cfg.Registry.Snapshot()
	got := map[string]float64{}
	for _, f := range snap.Families {
		for _, m := range f.Metrics {
			got[f.Name] += m.Value
		}
	}
	if got[MetricShardWindows] <= 0 {
		t.Fatalf("no shard windows published: %v", got)
	}
	if got[MetricShardMessages] <= 0 {
		t.Fatalf("no shard messages published: %v", got)
	}
	for _, name := range []string{MetricShardBarrierWait, MetricShardBusy, MetricShardChanMax} {
		if _, ok := got[name]; !ok {
			t.Fatalf("family %s missing from snapshot", name)
		}
	}
	windows := got[MetricShardWindows]
	// A second flush with no new coordinator work must add zero.
	c.FlushMetrics()
	snap = cfg.Registry.Snapshot()
	again := 0.0
	for _, f := range snap.Families {
		if f.Name == MetricShardWindows {
			for _, m := range f.Metrics {
				again += m.Value
			}
		}
	}
	if again != windows {
		t.Fatalf("idle FlushMetrics re-counted windows: %v -> %v", windows, again)
	}
}

// TestClusterPreprocStatsMatchSingleThreaded: shard clones share the
// parent pre-processor's compiled table and instruments, stage privately,
// and roll back up — the parent's Stats and its qvisor_preproc_* series
// after a sharded run equal the single-threaded run's.
func TestClusterPreprocStatsMatchSingleThreaded(t *testing.T) {
	run := func(shards int) (core.PreprocStats, []obs.FamilySnapshot) {
		cfg := shardScenario(t, 10*sim.Millisecond)
		jp, err := core.Synthesize([]*core.Tenant{
			{ID: 1, Name: "t1", Algorithm: cfg.Tenants[0].Ranker},
			{ID: 2, Name: "t2", Algorithm: cfg.Tenants[1].Ranker},
		}, policy.MustParse("t1 + t2"), core.SynthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		pp := core.NewPreprocessor(jp, core.UnknownWorst)
		pp.EnableMetrics(reg, nil)
		cfg.Preprocessor, cfg.Shards = pp, shards
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Run()
		var fams []obs.FamilySnapshot
		for _, f := range reg.Snapshot().Families {
			if strings.HasPrefix(f.Name, "qvisor_preproc_") {
				fams = append(fams, f)
			}
		}
		return pp.Stats(), fams
	}
	refStats, refFams := run(1)
	if refStats.Processed == 0 || len(refFams) != 4 {
		t.Fatalf("reference run: stats %+v, %d preproc families", refStats, len(refFams))
	}
	for _, shards := range []int{2, 4} {
		st, fams := run(shards)
		if st != refStats {
			t.Errorf("shards=%d absorbed stats %+v, single-threaded %+v", shards, st, refStats)
		}
		if !reflect.DeepEqual(fams, refFams) {
			t.Errorf("shards=%d preproc series diverge:\n got %+v\nwant %+v", shards, fams, refFams)
		}
	}
}

// TestNetworkSimSurface: the single-threaded Network satisfies the same
// Sim surface the cluster does — drained Outstanding, no-op Close, host
// count.
func TestNetworkSimSurface(t *testing.T) {
	cfg := shardScenario(t, 2*sim.Millisecond)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got := n.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after drained run = %d, want 0", got)
	}
	if got := n.Hosts(); got != cfg.Leaves*cfg.HostsPerLeaf {
		t.Fatalf("Hosts = %d, want %d", got, cfg.Leaves*cfg.HostsPerLeaf)
	}
	n.Close() // no-op, must not disturb results
	if n.FCTs().Len() == 0 {
		t.Fatal("no flows completed")
	}
}
