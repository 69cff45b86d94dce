package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pifotree"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
	"qvisor/internal/workload"
)

// kindCount is a JSON-lines sink that keeps only how many events of each
// kind were streamed into it (the recorder writes one line per Write).
type kindCount map[string]int

func (k kindCount) Write(line []byte) (int, error) {
	const key = `"kind":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("event line without a kind: %s", line)
	}
	rest := line[i+len(key):]
	k[string(rest[:bytes.IndexByte(rest, '"')])]++
	return len(line), nil
}

// TestClusterStreamTraceComplete: a JSON-lines trace keeps every event, so
// a sharded run must stream exactly what the single-threaded run streams —
// the same total and the same count per kind — however many events a shard
// records. Each shard here records more than a default flight ring holds,
// which is what a shard's fork used to be whatever its parent was.
func TestClusterStreamTraceComplete(t *testing.T) {
	run := func(shards int) (uint64, kindCount) {
		cfg := shardScenario(t, 30*sim.Millisecond)
		cfg.Shards = shards
		kinds := kindCount{}
		rec := trace.NewRecorder(kinds, trace.Options{})
		cfg.Trace = rec
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Run()
		return rec.Count(), kinds
	}
	n1, kinds1 := run(1)
	n2, kinds2 := run(2)
	if n1 <= 2*trace.DefaultRingSize {
		t.Fatalf("only %d events in play: too few for a shard to outgrow a default ring", n1)
	}
	if n2 != n1 {
		t.Errorf("Shards:2 streamed %d events, Shards:1 streamed %d", n2, n1)
	}
	if !reflect.DeepEqual(kinds1, kinds2) {
		t.Errorf("per-kind event counts differ:\n shards=1 %v\n shards=2 %v", kinds1, kinds2)
	}
}

// seriesTotals reads the qvisor_sched_* families out of a registry: the
// set of family names present, and enqueued / dequeued / sojourn-count
// summed over every (role, scheduler) series.
func seriesTotals(reg *obs.Registry) (families map[string]bool, enq, deq, sojourns uint64) {
	families = map[string]bool{}
	for _, f := range reg.Snapshot().Families {
		if !strings.HasPrefix(f.Name, "qvisor_sched_") {
			continue
		}
		families[f.Name] = true
		for _, m := range f.Metrics {
			switch f.Name {
			case MetricSchedEnqueued:
				enq += uint64(m.Value)
			case MetricSchedDequeued:
				deq += uint64(m.Value)
			case MetricSchedSojournNs:
				sojourns += m.Count
			}
		}
	}
	return families, enq, deq, sojourns
}

// TestPortSeriesCoverWrappedSchedulers: the scheduler series are produced
// at the port, so a port scheduler has them whatever its type — wrapped in
// a FaultInjector, or a pifotree.Tree that is no sched type at all. Both
// used to publish nothing: the series were attached by type assertion to
// the five sched types that instrumented themselves.
func TestPortSeriesCoverWrappedSchedulers(t *testing.T) {
	allFamilies := []string{
		MetricSchedEnqueued, MetricSchedDequeued, MetricSchedDropped, MetricSchedEvicted,
		MetricSchedInversions, MetricSchedDepthPkts, MetricSchedDepthBytes, MetricSchedSojournNs,
	}
	run := func(mutate func(*Config)) (*Network, *obs.Registry) {
		cfg := shardScenario(t, 5*sim.Millisecond)
		cfg.Registry = obs.NewRegistry()
		mutate(&cfg)
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		return n, cfg.Registry
	}
	check := func(name string, n *Network, reg *obs.Registry, wantEnq uint64) {
		t.Helper()
		families, enq, deq, sojourns := seriesTotals(reg)
		for _, f := range allFamilies {
			if !families[f] {
				t.Errorf("%s: family %s not published", name, f)
			}
		}
		var tx uint64
		for _, ps := range n.PortStats() {
			tx += ps.TxPackets
		}
		if enq != wantEnq {
			t.Errorf("%s: enqueued_total = %d, want %d", name, enq, wantEnq)
		}
		if deq != tx {
			t.Errorf("%s: dequeued_total = %d, ports transmitted %d", name, deq, tx)
		}
		if sojourns != deq {
			t.Errorf("%s: sojourn histogram counts %d packets, dequeued_total is %d", name, sojourns, deq)
		}
	}

	plain, plainReg := run(func(*Config) {})
	_, plainEnq, _, _ := seriesTotals(plainReg)
	if plainEnq == 0 {
		t.Fatal("reference run enqueued nothing")
	}
	check("plain", plain, plainReg, plainEnq)

	// Every port's PIFO inside a fault injector that never drops: the same
	// run, behind a type the port knows nothing about.
	wrapped, wrappedReg := run(func(cfg *Config) {
		cfg.Scheduler = func(drop sched.DropFn) sched.Scheduler {
			return NewFaultInjector(sched.NewPIFO(sched.Config{OnDrop: drop}), nil, drop)
		}
	})
	if wrapped.Counters() != plain.Counters() {
		t.Fatalf("a never-dropping injector changed the run: %+v vs %+v", wrapped.Counters(), plain.Counters())
	}
	check("fault-injector", wrapped, wrappedReg, plainEnq)

	// Leaf ports scheduled by a PIFO tree (one leaf class, ranked by the
	// packet's own rank), everything else by the default PIFO.
	var trees []*pifotree.Tree
	treed, treedReg := run(func(cfg *Config) {
		cfg.SchedulerFor = func(role string, _ int, drop sched.DropFn) sched.Scheduler {
			if role != "leaf" {
				return nil
			}
			tr := pifotree.NewTree(sched.Config{OnDrop: drop}, nil, func(*pkt.Packet) string { return "all" })
			if err := tr.AddLeaf("root", "all", func(p *pkt.Packet) int64 { return p.Rank }); err != nil {
				t.Fatal(err)
			}
			trees = append(trees, tr)
			return tr
		}
	})
	var treeEnq uint64
	for _, tr := range trees {
		treeEnq += tr.Stats().Enqueued
	}
	var leafEnq uint64
	for _, f := range treedReg.Snapshot().Families {
		if f.Name != MetricSchedEnqueued {
			continue
		}
		for _, m := range f.Metrics {
			if m.Labels["scheduler"] == "pifotree" {
				leafEnq += uint64(m.Value)
			}
		}
	}
	if treeEnq == 0 || leafEnq != treeEnq {
		t.Errorf("pifotree: enqueued_total{scheduler=pifotree} = %d, the trees' Stats().Enqueued sum to %d", leafEnq, treeEnq)
	}
	_, allEnq, _, _ := seriesTotals(treedReg)
	check("pifotree", treed, treedReg, allEnq)
}

// TestAllocBudgetSimSteadyStateInstrumented: the zero-allocation guarantee
// with everything attached at once — registry, flight recorder at 1-in-8,
// watchdog at 1-in-8. Eight CBR flows, so flow 8 is in both samples and
// the slice exercises the sampled path of every hook (ring copy, shadow
// mirror, series stage) beside the one-branch unsampled path.
func TestAllocBudgetSimSteadyStateInstrumented(t *testing.T) {
	var flows []workload.FlowSpec
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.FlowSpec{Start: 0, Src: i % 4, Dst: (i + 2) % 4, Rate: 100e6})
	}
	cfg := tiny([]TenantDef{{ID: 1, Name: "cbr", Ranker: &rank.PFabric{}, Flows: flows}}, sim.MaxTime/4)
	cfg.Registry = obs.NewRegistry()
	cfg.Trace = trace.NewFlightRecorder(trace.Options{FlowSample: 8})
	cfg.Watch = slo.New(slo.Config{SampleN: 8})
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := n.Engine()
	now := 5 * sim.Millisecond
	eng.Run(now)
	before, watched := cfg.Trace.Count(), cfg.Watch.Revision()
	allocs := testing.AllocsPerRun(200, func() {
		now += 50 * sim.Microsecond
		eng.Run(now)
	})
	if allocs != 0 {
		t.Fatalf("instrumented steady-state slice allocates %.1f objects/op, budget is 0", allocs)
	}
	if cfg.Trace.Count() == before || cfg.Watch.Revision() == watched {
		t.Fatal("the measured slices recorded nothing: the sampled path was not exercised")
	}
	n.FlushMetrics()
	if _, enq, _, _ := seriesTotals(cfg.Registry); enq == 0 {
		t.Fatal("the port series counted nothing")
	}
}

// TestStampMatchesRecordFilter: the sampling decision has one definition
// per observer — the exported Samples predicate — and three users that
// must agree with it: the observer's own entry points on a packet nobody
// stamped (bench and the packages' tests call those directly), and the
// simulator, which asks once at emit and tests the stamp afterwards.
func TestStampMatchesRecordFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pkts := make([]*pkt.Packet, 10000)
	for i := range pkts {
		pkts[i] = &pkt.Packet{ID: uint64(i + 1), Flow: uint64(rng.Intn(1 << 12)), Tenant: pkt.TenantID(rng.Intn(6)), Size: 100}
	}
	flowSamples := []uint64{0, 1, 2, 8, 64}
	sampleNs := []uint64{1, 8, 64}

	// Direct calls on unstamped packets.
	for _, fs := range flowSamples {
		rec := trace.NewFlightRecorder(trace.Options{FlowSample: fs, RingSize: 8})
		for _, p := range pkts {
			before := rec.Count()
			rec.Record(1, trace.KindEnqueue, "x", p)
			if got, want := rec.Count() != before, rec.Samples(p); got != want {
				t.Fatalf("FlowSample %d, flow %d: Record recorded=%v, Samples=%v", fs, p.Flow, got, want)
			}
			if want := fs <= 1 || p.Flow%fs == 0; rec.Samples(p) != want {
				t.Fatalf("FlowSample %d, flow %d: Samples=%v", fs, p.Flow, !want)
			}
		}
	}
	for _, sn := range sampleNs {
		w := slo.New(slo.Config{SampleN: sn})
		pw := w.PortWatch()
		for _, p := range pkts {
			before := w.Revision()
			pw.OnEnqueue(1, p)
			pw.OnDequeue(2, p) // keep the shadow empty
			if got, want := w.Revision() != before, w.Samples(p); got != want {
				t.Fatalf("SampleN %d, flow %d: OnEnqueue mirrored=%v, Samples=%v", sn, p.Flow, got, want)
			}
			if want := sn <= 1 || p.Flow%sn == 0; w.Samples(p) != want {
				t.Fatalf("SampleN %d, flow %d: Samples=%v", sn, p.Flow, !want)
			}
		}
	}

	// The simulator: one full trace as the reference, then each rate. A
	// run's recorded events must be exactly the reference events of the
	// flows Samples selects, and its watchdog must have mirrored exactly
	// the reference enqueues of the flows its Samples selects.
	run := func(fs, sn uint64) ([]trace.Event, *trace.Recorder, *slo.Watchdog) {
		cfg := shardScenario(t, 5*sim.Millisecond)
		cfg.Trace = trace.NewFlightRecorder(trace.Options{FlowSample: fs})
		cfg.Watch = slo.New(slo.Config{SampleN: sn})
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.Run()
		events, seq := cfg.Trace.Snapshot(trace.AllEvents)
		if seq != uint64(len(events)) {
			t.Fatalf("ring wrapped: %d of %d events kept", len(events), seq)
		}
		return events, cfg.Trace, cfg.Watch
	}
	ref, _, _ := run(0, 1)
	maxFlow := uint64(0)
	for _, e := range ref {
		maxFlow = max(maxFlow, e.Flow)
	}
	if maxFlow < 64 {
		t.Fatalf("reference run has %d flows: too few to meet a 1-in-64 sample", maxFlow)
	}
	for i, fs := range flowSamples {
		sn := sampleNs[i%len(sampleNs)]
		events, rec, w := run(fs, sn)
		var want []trace.Event
		var wantEnq uint64
		for _, e := range ref {
			p := &pkt.Packet{Flow: e.Flow}
			if rec.Samples(p) {
				want = append(want, e)
			}
			if e.Kind == trace.KindEnqueue && w.Samples(p) {
				wantEnq++
			}
		}
		if !reflect.DeepEqual(events, want) {
			t.Errorf("FlowSample %d: the run recorded %d events, Samples selects %d of the full trace", fs, len(events), len(want))
		}
		if got := w.Snapshot().Global.SampledEnqueues; got != wantEnq {
			t.Errorf("SampleN %d: the watchdog mirrored %d enqueues, Samples selects %d", sn, got, wantEnq)
		}
	}
}
