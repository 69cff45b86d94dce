package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/experiments"
	"qvisor/internal/netsim"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// The three simulator workloads share one runner: a list of schemes run
// serially through experiments.Run under one config.

const (
	fig4Load = 0.6
	// fig4Horizon is experiments.ScaledConfig's own traffic window. A pass
	// of six schemes takes about 1.1 s of host time at it, so a 10 s run
	// holds nine passes; the issue's 200 ms would leave four.
	fig4Horizon = 100 * sim.Millisecond
	// observerSample is the 1-in-N flow sampling of the flight recorder and
	// the SLO watchdog in fig4_observed: at 1-in-8 the observers are a fifth
	// of wall time while 7/8 of packets still take the unsampled path.
	observerSample = 8
)

var qvisorSchemes = []experiments.Scheme{
	experiments.QvisorEDFFirst, experiments.QvisorShare, experiments.QvisorPFabricFirst,
}

type fig4 struct {
	cfg      experiments.Config
	schemes  []experiments.Scheme
	observed bool
	reg      *obs.Registry
	rec      *trace.Recorder

	// Pass n runs on sub-seed n of the run's seed (see subSeed). seen holds
	// each scheme's digest per sub-seed; a sub-seed that runs again — the
	// warm-up's always does, and a traced run repeats all of them — must
	// reproduce it.
	seen map[int64][]uint64

	first    []experiments.Result // sub-seed 0: what describe and the simulated statistics report
	results  []experiments.Result // last pass
	lastSeed int64                // sub-seed of the last pass
	walls    []float64            // host ns per scheme, last pass
	recN     uint64               // recorder events, last pass
	sloN     uint64               // watchdog sampled enqueues, last pass

	// Sharded passes: fidelity, largest completion-time shift and counter
	// gap of sub-seed 0 against its Shards:1 reference, and every pass's
	// sharded rate over its reference's rate.
	fidelity experiments.Fidelity
	maxShift sim.Time
	gap      float64
	speedups []float64

	genS  float64
	flows int
	// microN is the iteration count of each micro-replay.
	microN int
}

// subSeed derives pass n's workload seed from the run's seed. How fast a
// Figure-4 run simulates depends on where the heavy tail's few large flows
// land — ten seeds of one pass differ by a tenth — so a run's passes use
// different traffic, and the median over them is steadier than any one.
func subSeed(seed int64, n int) int64 {
	if n < 0 {
		n = 0 // the warm-up pass shares pass 0's traffic
	}
	return seed*1000 + int64(n)
}

// microIters is how many calls a micro-replay times (per repetition).
const microIters = 400_000

func baseFig4(seed int64, scale float64) experiments.Config {
	cfg := experiments.ScaledConfig()
	cfg.Seed = seed
	cfg.Horizon = sim.Time(float64(fig4Horizon) * scale)
	if cfg.Horizon < 2*sim.Millisecond {
		cfg.Horizon = 2 * sim.Millisecond
	}
	return cfg
}

func buildFig4Load60(seed int64, scale float64) (runner, error) {
	cfg := baseFig4(seed, scale)
	cfg.Pool, cfg.Engine = pkt.NewPool(), sim.New()
	return newFig4(&fig4{cfg: cfg, schemes: experiments.Schemes, microN: scaled(microIters, scale, 20_000)})
}

func buildFig4Observed(seed int64, scale float64) (runner, error) {
	cfg := baseFig4(seed, scale)
	cfg.Pool, cfg.Engine = pkt.NewPool(), sim.New()
	return newFig4(&fig4{cfg: cfg, schemes: qvisorSchemes, observed: true, microN: scaled(microIters, scale, 20_000),
		reg: obs.NewRegistry(), rec: trace.NewFlightRecorder(trace.Options{FlowSample: observerSample})})
}

func buildFabricSharded(seed int64, scale float64) (runner, error) {
	cfg := baseFig4(seed, scale)
	cfg.Leaves, cfg.HostsPerLeaf, cfg.Spines, cfg.CBRFlows = 4, 4, 2, 10
	cfg.Shards = 2
	return newFig4(&fig4{cfg: cfg, schemes: []experiments.Scheme{experiments.QvisorShare}, microN: scaled(microIters, scale, 20_000)})
}

// newFig4 times the traffic generation experiments.Run repeats inside every
// scheme run, then runs the warm-up pass.
func newFig4(f *fig4) (runner, error) {
	f.seen = make(map[int64][]uint64)
	cfg := f.cfg
	cfg.Seed = subSeed(f.cfg.Seed, 0)
	t0 := time.Now()
	pf, cbr, err := genFlows(cfg, fig4Load)
	if err != nil {
		return nil, err
	}
	f.genS, f.flows = time.Since(t0).Seconds(), len(pf)+len(cbr)
	if p := f.pass(nil, -1); p.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", p.why)
	}
	f.first = f.results
	f.speedups = nil
	return f, nil
}

// digest fingerprints what a scheme run computed: packet counters, the FCT
// summaries of every bin, the deadline share, and what the observers saw.
func digest(r experiments.Result, recN, sloRev uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v|%v|%d|%d|%d",
		r.Counters, r.Small, r.Large, r.All, r.DeadlineMet, r.Flows, recN, sloRev)
	return h.Sum64()
}

func (f *fig4) sharded() bool { return f.cfg.Shards > 1 }

// pass runs every scheme once on sub-seed n. An op is one scheme run.
func (f *fig4) pass(t *tracer, n int) pass {
	var p pass
	k := len(f.schemes)
	f.results, f.walls = make([]experiments.Result, k), make([]float64, k)
	f.lastSeed = subSeed(f.cfg.Seed, n)
	f.recN, f.sloN = 0, 0
	digests := make([]uint64, k)
	ref := f.seen[f.lastSeed]
	root := t.begin("pass", -1, n)
	for i, s := range f.schemes {
		cfg := f.cfg
		cfg.Seed = f.lastSeed
		var watch *slo.Watchdog
		if f.observed {
			watch = slo.New(slo.Config{SampleN: observerSample})
			cfg.Registry, cfg.Trace, cfg.Watch = f.reg, f.rec, watch
		}
		rec0 := f.rec.Count()
		p.attempted++
		var res experiments.Result
		var err error
		if f.sharded() {
			res, err = f.runSharded(t, root, n, cfg, s, i, &p)
		} else {
			// As experiments.RunPoints does between trials: zero the
			// pool's accounting, keep its warm free list.
			cfg.Pool.Reset()
			id := t.begin("experiments.Run", root, n)
			t0 := time.Now()
			res, err = experiments.Run(cfg, s, fig4Load)
			f.walls[i] = float64(time.Since(t0))
			t.end(id)
		}
		p.wall += f.walls[i]
		if err != nil {
			p.fail("%v: %v", s, err)
			continue
		}
		f.results[i] = res
		var sloRev uint64
		if watch != nil {
			snap := watch.Snapshot()
			sloRev = snap.Revision
			f.sloN += snap.Global.SampledEnqueues
		}
		recN := f.rec.Count() - rec0
		f.recN += recN
		digests[i] = digest(res, recN, sloRev)
		c := res.Counters
		p.ops += emitted(c)
		// Conservation: a packet is delivered, dropped, or still in flight
		// when the drain window closes — and in flight means exactly the
		// packets the pool has not got back. (A sharded run's pools are
		// private; runSharded grades it against its Shards:1 reference.)
		inFlight := emitted(c) - c.Delivered - c.Dropped
		switch {
		case ref != nil && digests[i] != ref[i]:
			p.fail("%v: digest %016x differs from %016x of the same traffic earlier in this process", s, digests[i], ref[i])
		case !f.sharded() && uint64(cfg.Pool.Outstanding()) != inFlight:
			p.fail("%v: sent %d - delivered %d - dropped %d != %d packets the pool is missing",
				s, emitted(c), c.Delivered, c.Dropped, cfg.Pool.Outstanding())
		}
	}
	t.end(root)
	if ref == nil {
		f.seen[f.lastSeed] = digests
	}
	p.nsPerOp = ratio(p.wall, float64(p.ops))
	return p
}

// runSharded runs the scheme at Shards:1 and sharded through RunScaling,
// which grades the sharded run flow by flow against the reference. Only the
// sharded point's own wall time is the pass's cost.
func (f *fig4) runSharded(t *tracer, root, n int, cfg experiments.Config, s experiments.Scheme, i int, p *pass) (experiments.Result, error) {
	id := t.begin("experiments.RunScaling", root, n)
	pts, err := experiments.RunScaling(cfg, s, fig4Load, []int{1, cfg.Shards})
	t.end(id)
	if err != nil {
		return experiments.Result{}, err
	}
	one, sh := pts[0], pts[1]
	f.walls[i] = float64(sh.Wall)
	f.speedups = append(f.speedups, float64(one.Wall)/float64(sh.Wall))
	gap := counterGap(one.Result.Counters, sh.Result.Counters)
	if gap > shardGapTolerance {
		p.fail("%v: sharded counters are %.2f%% off the Shards:1 reference (%v)", s, 100*gap, sh.Fidelity)
	}
	if n <= 0 {
		f.fidelity, f.maxShift, f.gap = sh.Fidelity, sh.MaxEndDelta, gap
	}
	return sh.Result, nil
}

// shardGapTolerance is how far any packet counter of a sharded run may be
// from the Shards:1 reference before the run counts as failed. The sharded
// engine is "equivalent, not exact": on about half the seeds a
// same-nanosecond arrival tie reorders, a drop decision flips, and counters
// end a fraction of a percent apart (0.5% at most over the seeds tried).
// Making it exact is a ROADMAP item; until then the gap is reported as
// netsim.shard_counter_gap and only a gross divergence fails.
const shardGapTolerance = 0.02

// counterGap is the largest relative difference between two runs' counters.
func counterGap(a, b netsim.Counters) float64 {
	pairs := [][2]uint64{
		{a.DataSent, b.DataSent}, {a.Retransmits, b.Retransmits}, {a.AcksSent, b.AcksSent},
		{a.Delivered, b.Delivered}, {a.Dropped, b.Dropped}, {a.CBRSent, b.CBRSent},
		{a.CBRDelivered, b.CBRDelivered}, {a.CBROnTime, b.CBROnTime},
	}
	gap := 0.0
	for _, p := range pairs {
		if d := math.Abs(float64(p[0])-float64(p[1])) / float64(max(p[0], 1)); d > gap {
			gap = d
		}
	}
	return gap
}

func (f *fig4) close() []string { return nil }

// result returns sub-seed 0's result for a scheme, if the workload runs it.
func (f *fig4) result(s experiments.Scheme) (experiments.Result, bool) {
	for i, x := range f.schemes {
		if x == s {
			return f.first[i], true
		}
	}
	return experiments.Result{}, false
}

// simulated returns the simulated-time statistics of sub-seed 0; they repeat
// exactly for a seed.
func (f *fig4) simulated() map[string]float64 {
	out := make(map[string]float64)
	ideal, ok1 := f.result(experiments.PIFOIdeal)
	first, ok2 := f.result(experiments.QvisorPFabricFirst)
	if ok1 && ok2 {
		out["netsim.fct_small_vs_ideal"] = ratio(float64(first.Small.Mean), float64(ideal.Small.Mean))
	}
	if edf, ok := f.result(experiments.QvisorEDFFirst); ok {
		out["netsim.deadline_met_share"] = edf.DeadlineMet
	}
	if f.sharded() {
		out["netsim.max_fct_shift_ns"] = float64(f.maxShift)
		out["netsim.shard_counter_gap"] = f.gap
	}
	return out
}

func (f *fig4) describe(w io.Writer) {
	fmt.Fprintf(w, "  %d sub-seeds ran; sub-seed 0:\n", len(f.seen))
	for i, s := range f.schemes {
		r := f.first[i]
		fmt.Fprintf(w, "  digest %016x  %-24s pkts=%d small-FCT=%v deadline-met=%.4f\n",
			f.seen[subSeed(f.cfg.Seed, 0)][i], s, emitted(r.Counters), r.Small.Mean, r.DeadlineMet)
	}
	sim := f.simulated()
	for _, name := range []string{"netsim.fct_small_vs_ideal", "netsim.deadline_met_share"} {
		if v, ok := sim[name]; ok {
			fmt.Fprintf(w, "  simulated %s = %v\n", name, v)
		}
	}
	if f.sharded() {
		fmt.Fprintf(w, "  sharded vs Shards:1: fidelity=%v, largest FCT shift %d ns, largest counter gap %.4f%% (simulated)\n",
			f.fidelity, int64(f.maxShift), 100*f.gap)
	}
}

// ---- per-layer -----------------------------------------------------------

// layerCosts are the micro-replayed per-call costs of the layers under the
// simulator, at the operating point a counting run observed.
type layerCosts struct {
	engine             float64 // per event
	fifoEnq, fifoDeq   float64
	pifoEnq, pifoDeq   float64
	preproc, rank, pkt float64
}

// modelled is count x cost for every layer but netsim itself, in host ns.
func (lc layerCosts) modelled(c counts, fifo bool) (engine, schedT, rewrite, rankT, pool float64) {
	enq, deq := lc.pifoEnq, lc.pifoDeq
	if fifo {
		enq, deq = lc.fifoEnq, lc.fifoDeq
	}
	return float64(c.events) * lc.engine,
		float64(c.enq)*enq + float64(c.deq)*deq,
		float64(c.preproc.Processed) * lc.preproc,
		float64(c.pkts) * lc.rank,
		float64(c.pool.Gets) * lc.pkt
}

func (f *fig4) layers(t *tracer, untraced []pass, reps int) (map[string]float64, error) {
	out := f.simulated()
	out["workload.gen_s"], out["workload.flows"] = f.genS, float64(f.flows)

	// Traced passes: the same pass with a span around every scheme run.
	var traced []float64
	var last pass
	for i := 0; i < reps; i++ {
		last = f.pass(t, i)
		if last.failed > 0 {
			return nil, fmt.Errorf("traced pass: %v", last.why)
		}
		traced = append(traced, last.wall)
	}
	var plain, rates []float64
	for _, p := range untraced {
		plain = append(plain, p.wall)
		rates = append(rates, float64(p.ops)/(p.wall/1e9))
	}
	// Traced and untraced passes ran the same sub-seeds.
	out["bench.trace_overhead_share"] = median(traced)/median(plain) - 1
	out["netsim.sim_pkts_per_s"] = median(rates)
	// Counts below are of the last traced pass's traffic, so shares are of
	// that pass's wall time.
	wall, pkts := last.wall, float64(last.ops)
	out["rank.calls"] = pkts
	out["trace.events_recorded"], out["slo.sampled_pkts"] = float64(f.recN), float64(f.sloN)

	// One counting run per scheme through netsim.Build, checked against the
	// timed run's counters.
	cs := make([]counts, len(f.schemes))
	cfg := f.cfg
	cfg.Seed = f.lastSeed // the traffic of the pass just timed
	for i, s := range f.schemes {
		pr, err := buildProbe(cfg, s, fig4Load)
		if err != nil {
			return nil, err
		}
		if cs[i], err = pr.run(); err != nil {
			return nil, fmt.Errorf("counting run of %v: %w", s, err)
		}
		if cs[i].counters != f.results[i].Counters {
			return nil, fmt.Errorf("counting run of %v: counters differ from experiments.Run's", s)
		}
	}
	sum := sumCounts(cs)
	data := float64(sum.counters.DataSent + sum.counters.Retransmits)
	out["sim.events"] = float64(sum.events)
	out["sim.events_per_pkt"] = ratio(float64(sum.events), pkts)
	out["sim.ns_per_event"] = ratio(wall, float64(sum.events))
	out["sim.pending_mean"] = sum.depth
	out["sched.ops"] = float64(sum.enq + sum.deq)
	out["sched.backlog_mean"] = sum.backlog
	out["sched.drops"] = float64(sum.counters.Dropped)
	out["core.preproc_pkts"] = float64(sum.preproc.Processed)
	out["core.preproc_clamped"] = float64(sum.preproc.Clamped)
	out["core.preproc_unknown"] = float64(sum.preproc.Unknown)
	out["pkt.pool_gets"] = float64(sum.pool.Gets)
	if sum.pool.Gets > 0 { // a sharded run's pools are private
		out["pkt.pool_reuse_ratio"] = 1 - float64(sum.pool.News)/float64(sum.pool.Gets)
	}
	out["netsim.retransmit_share"] = ratio(float64(sum.counters.Retransmits), data)
	out["netsim.drop_share"] = ratio(float64(sum.counters.Dropped), pkts)
	out["netsim.acks_per_data"] = ratio(float64(sum.counters.AcksSent), data)
	out["netsim.port_util_max"] = sum.utilMax
	out["netsim.hops_per_pkt"] = ratio(float64(sum.hops), pkts)
	out["netsim.build_s"] = sum.buildS

	if f.sharded() {
		f.coordLayer(out, cs[0])
	}

	// Micro-replayed costs at the observed operating point.
	lc, err := f.microCosts(sum)
	if err != nil {
		return nil, err
	}
	out["sim.engine_ns_per_op"] = lc.engine
	out["sched.enq_ns"], out["sched.deq_ns"] = lc.pifoEnq, lc.pifoDeq
	out["core.preproc_ns_per_pkt"] = lc.preproc
	out["rank.rank_ns"] = lc.rank
	out["pkt.pool_getput_ns"] = lc.pkt

	if !f.sharded() {
		f.costModel(out, cs, lc)
	}
	if f.observed {
		if err := f.observerLadder(t, out, reps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (f *fig4) microCosts(sum counts) (layerCosts, error) {
	n := f.microN
	var lc layerCosts
	lc.engine = engineOpNs(int(sum.depth+0.5), 2*n, f.cfg.Seed)
	backlog := int(sum.backlog + 0.5)
	lc.fifoEnq, lc.fifoDeq = schedOpNs(func() sched.Scheduler {
		return sched.NewFIFO(sched.Config{CapacityBytes: 1 << 30})
	}, backlog, n, 1<<20, f.cfg.Seed)
	lc.pifoEnq, lc.pifoDeq = schedOpNs(func() sched.Scheduler {
		return sched.NewPIFO(sched.Config{CapacityBytes: 1 << 30})
	}, backlog, n, 1<<20, f.cfg.Seed)
	pfRanker, edfRanker := fig4Rankers(f.cfg)
	spec, err := policy.Parse(experiments.QvisorShare.OperatorSpec())
	if err != nil {
		return lc, err
	}
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: pfabricID, Name: "pfabric", Algorithm: pfRanker, Levels: 1 << 20},
		{ID: edfID, Name: "edf", Algorithm: edfRanker, Levels: 1 << 20},
	}, spec, core.SynthOptions{})
	if err != nil {
		return lc, err
	}
	lc.preproc = preprocNs(core.NewPreprocessor(jp, core.UnknownWorst),
		[]pkt.TenantID{pfabricID, edfID}, edfRanker.Bounds().Hi, n)
	lc.rank = rankNs(pfRanker, edfRanker, n)
	lc.pkt = poolNs(n)
	return lc, nil
}

// costModel sets count x cost against the measured wall time. netsim's own
// cost (host transport, switch forwarding, port bookkeeping) cannot be timed
// from outside; it is calibrated as the residual of the first scheme run and
// then held fixed per hop, so the model is tested on every other scheme.
func (f *fig4) costModel(out map[string]float64, cs []counts, lc layerCosts) {
	isFIFO := func(i int) bool { return f.schemes[i] == experiments.FIFOBoth }
	e, s, r, k, p := lc.modelled(cs[0], isFIFO(0))
	selfPerHop := (f.walls[0] - e - s - r - k - p) / float64(cs[0].hops)
	out["netsim.self_ns_per_pkt"] = selfPerHop * float64(cs[0].hops) / float64(cs[0].pkts)

	var wall, engine, schedT, rewrite, explained, pkts float64
	for i, c := range cs {
		e, s, r, k, p := lc.modelled(c, isFIFO(i))
		wall += f.walls[i]
		engine, schedT, rewrite = engine+e, schedT+s, rewrite+r
		pkts += float64(c.pkts)
		if i > 0 || len(cs) == 1 {
			explained += e + s + r + k + p + selfPerHop*float64(c.hops)
		} else {
			explained += f.walls[0] // the calibration scheme explains itself
		}
	}
	out["sim.engine_share"] = engine / wall
	out["sched.share"] = schedT / wall
	out["core.preproc_share"] = rewrite / wall
	out["model.explained_share"] = explained / wall
	out["model.unexplained_ns_per_pkt"] = (wall - explained) / pkts
}

// coordLayer reports the shard coordinator's telemetry from the counting
// run.
func (f *fig4) coordLayer(out map[string]float64, c counts) {
	st := c.coord
	var wait, busy time.Duration
	for i := range st.BarrierWait {
		wait += st.BarrierWait[i]
		busy += st.Busy[i]
	}
	denom := float64(c.shards) * c.wall
	out["sim.coord_windows"] = float64(st.Windows)
	out["sim.coord_msgs"] = float64(st.Messages)
	out["sim.coord_msgs_per_window"] = ratio(float64(st.Messages), float64(st.Windows))
	out["sim.coord_barrier_wait_share"] = ratio(float64(wait), denom)
	out["sim.coord_busy_share"] = ratio(float64(busy), denom)
	out["sim.coord_chan_peak"] = float64(st.MaxChanLen)
	out["sim.coord_speedup_vs_1"] = median(f.speedups)
}

// observerLadder is the ablation ladder for the observers: one scheme, one
// observer added per rung, the rungs interleaved over reps+2 rounds. A rung's
// cost is its fastest round — interference only ever adds time, and with a
// handful of rounds the difference of two fastest runs is steadier than the
// difference of two medians. Share = rung cost over the observers-off cost,
// minus one.
func (f *fig4) observerLadder(t *tracer, out map[string]float64, reps int) error {
	const scheme = experiments.QvisorShare
	rungs := []string{"ladder.off", "ladder.+registry", "ladder.+trace", "ladder.+watch"}
	walls := make([][]float64, len(rungs))
	for rep := 0; rep < reps+2; rep++ {
		for r, name := range rungs {
			cfg := f.cfg
			if r >= 1 {
				cfg.Registry = obs.NewRegistry()
			}
			if r >= 2 {
				cfg.Trace = trace.NewFlightRecorder(trace.Options{FlowSample: observerSample})
			}
			if r >= 3 {
				cfg.Watch = slo.New(slo.Config{SampleN: observerSample})
			}
			runtime.GC() // the recorder ring is 10 MB; keep its collection out of the next rung
			id := t.begin(name, -1, rep)
			t0 := time.Now()
			_, err := experiments.Run(cfg, scheme, fig4Load)
			walls[r] = append(walls[r], float64(time.Since(t0)))
			t.end(id)
			if err != nil {
				return err
			}
		}
	}
	best := make([]float64, len(rungs))
	for r := range rungs {
		best[r] = slices.Min(walls[r])
	}
	out["obs.overhead_share"] = best[1]/best[0] - 1
	out["trace.overhead_share"] = (best[2] - best[1]) / best[0]
	out["slo.overhead_share"] = (best[3] - best[2]) / best[0]
	out["observers.total_share"] = best[3]/best[0] - 1
	out["trace.record_ns"] = traceRecordNs(f.microN)
	out["slo.hook_ns"] = sloHookNs(f.microN)
	return nil
}
