package main

import (
	"fmt"
	"regexp"
)

// metric is one named measurement of the benchmark. The catalog below is the
// single source of the names: BENCHMARK.json is generated from it
// (-write-manifest) and every run's output is checked against it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// End-to-end metrics: what a user of the system sees. Each is defined on
// every workload and is never zero, because the acceptance driver reads all
// of them from every untraced run.
//
// ns_per_op is host wall time per unit of the workload's product: per
// simulated packet emitted (fig4_*, fabric_sharded), per packet through
// rewrite→enqueue→dequeue (pipe_*), and the median PUT-to-published-epoch
// latency per update (control_churn). It is the median over timed passes.
// Its bound is the widest the contract allows because the reference VM is
// that unsteady: ten runs of one workload spread 4-13% between quartiles
// (README.md, "Reading the numbers").
var endToEnd = []metric{
	{Name: "ns_per_op", Unit: "ns", Better: "lower", Bound: 0.25,
		doc: "host ns per op, median over passes; op = simulated packet | forwarded packet | control update"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		doc: "ru_maxrss of the benchmark process"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		doc: "host s for constructors, workload generation, synthesis, reference run and warm-up pass; median of repeated set-ups"},
}

// Per-layer metrics (layer = package name before the dot). A traced run
// prints all of them for every workload; a layer the workload does not
// exercise reports 0.
var perLayer = []metric{
	// sim: event engine.
	{Name: "sim.events", Unit: "count", Better: "lower", doc: "Engine.Fired() per pass"},
	{Name: "sim.events_per_pkt", Unit: "ratio", Better: "lower", doc: "events per simulated packet"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", doc: "pass wall / events (rises when cheap events are removed)"},
	{Name: "sim.pending_mean", Unit: "count", Better: "lower", doc: "mean Engine.Pending() sampled 1000x over a run"},
	{Name: "sim.engine_ns_per_op", Unit: "ns", Better: "lower", doc: "micro-replay: After+fire of a no-op event at the observed pending depth (an upper estimate)"},
	{Name: "sim.engine_share", Unit: "share", Better: "lower", doc: "events x engine op cost / wall"},
	// sim: shard coordinator.
	{Name: "sim.coord_windows", Unit: "count", Better: "lower", doc: "barrier windows per run"},
	{Name: "sim.coord_msgs", Unit: "count", Better: "lower", doc: "cross-shard messages per run"},
	{Name: "sim.coord_msgs_per_window", Unit: "ratio", Better: "higher", doc: "messages / windows"},
	{Name: "sim.coord_barrier_wait_share", Unit: "share", Better: "lower", doc: "sum of per-shard barrier wait / (shards x wall)"},
	{Name: "sim.coord_busy_share", Unit: "share", Better: "higher", doc: "sum of per-shard busy time / (shards x wall)"},
	{Name: "sim.coord_chan_peak", Unit: "count", Better: "lower", doc: "handoff channel high-water mark"},
	{Name: "sim.coord_speedup_vs_1", Unit: "ratio", Better: "higher", doc: "sharded packet rate / Shards:1 packet rate"},
	// sched: port scheduler.
	{Name: "sched.enq_ns", Unit: "ns", Better: "lower", doc: "host ns per Enqueue (stage span in pipe_*, micro-replay at observed backlog in fig4_*)"},
	{Name: "sched.deq_ns", Unit: "ns", Better: "lower", doc: "host ns per Dequeue"},
	{Name: "sched.ops", Unit: "count", Better: "lower", doc: "Enqueue+Dequeue calls per pass"},
	{Name: "sched.drops", Unit: "count", Better: "lower", doc: "Stats().Dropped per pass"},
	{Name: "sched.evictions", Unit: "count", Better: "lower", doc: "Stats().Evicted per pass"},
	{Name: "sched.backlog_mean", Unit: "count", Better: "lower", doc: "mean Len() seen by an Enqueue"},
	{Name: "sched.share", Unit: "share", Better: "lower", doc: "scheduler time / wall"},
	// core: rank rewrite.
	{Name: "core.preproc_ns_per_pkt", Unit: "ns", Better: "lower", doc: "Preprocessor.Process per packet"},
	{Name: "core.preproc_batch_ns_per_pkt", Unit: "ns", Better: "lower", doc: "Preprocessor.ApplyBatch per packet"},
	{Name: "core.preproc_pkts", Unit: "count", Better: "lower", doc: "Stats().Processed per pass"},
	{Name: "core.preproc_clamped", Unit: "count", Better: "lower", doc: "Stats().Clamped per pass"},
	{Name: "core.preproc_unknown", Unit: "count", Better: "lower", doc: "Stats().Unknown per pass"},
	{Name: "core.preproc_share", Unit: "share", Better: "lower", doc: "rewrite time / wall"},
	// core: control plane.
	{Name: "core.resynth_us", Unit: "us", Better: "lower", doc: "Resynthesizer.Resynthesize replay, p50"},
	{Name: "core.resynth_tier_hit_ratio", Unit: "ratio", Better: "higher", doc: "TierHits / (TierHits+TierMisses)"},
	{Name: "core.resynth_full_fallbacks", Unit: "count", Better: "lower", doc: "ResynthStats.Full"},
	{Name: "core.deploy_us", Unit: "us", Better: "lower", doc: "JointPolicy.Deploy replay, p50"},
	{Name: "core.epoch_publish_us", Unit: "us", Better: "lower", doc: "EpochStore.Publish replay, p50"},
	{Name: "core.epoch_acq_rel_ns", Unit: "ns", Better: "lower", doc: "Acquire+Release pair, micro"},
	{Name: "core.epoch_peak_draining", Unit: "count", Better: "lower", doc: "max Draining() seen after an update"},
	{Name: "core.epoch_reader_mpps", Unit: "Mpkt/s", Better: "higher", doc: "reader goroutine Epoch.Process calls per host s beside the writer"},
	{Name: "core.synth_full_us", Unit: "us", Better: "lower", doc: "full core.Synthesize of the same tenant set"},
	// api.
	{Name: "api.update_epoch_p50_us", Unit: "us", Better: "lower", doc: "ServeHTTP entry to return with the new generation current, p50"},
	{Name: "api.update_epoch_p99_us", Unit: "us", Better: "lower", doc: "same sample, p99 (median of per-pass p99)"},
	{Name: "api.put_tenant_self_us", Unit: "us", Better: "lower", doc: "ServeHTTP p50 minus direct Controller.UpdateTenant replay p50"},
	{Name: "api.json_bytes_per_req", Unit: "B", Better: "lower", doc: "request + response body bytes"},
	{Name: "api.non2xx", Unit: "count", Better: "lower", doc: "responses outside 2xx"},
	// netsim: hosts, transport, switches, ports.
	{Name: "netsim.sim_pkts_per_s", Unit: "pkt/s", Better: "higher", doc: "simulated packets emitted per host s"},
	{Name: "netsim.self_ns_per_pkt", Unit: "ns", Better: "lower", doc: "residual on the calibration scheme: wall/pkt minus every other layer's count x cost"},
	{Name: "netsim.retransmit_share", Unit: "share", Better: "lower", doc: "Retransmits / (DataSent+Retransmits)"},
	{Name: "netsim.drop_share", Unit: "share", Better: "lower", doc: "Dropped / packets emitted"},
	{Name: "netsim.acks_per_data", Unit: "ratio", Better: "lower", doc: "AcksSent / (DataSent+Retransmits)"},
	{Name: "netsim.port_util_max", Unit: "share", Better: "lower", doc: "busiest port's utilization"},
	{Name: "netsim.hops_per_pkt", Unit: "ratio", Better: "lower", doc: "port transmissions / packets emitted"},
	{Name: "netsim.build_s", Unit: "s", Better: "lower", doc: "netsim.Build of the scenario"},
	{Name: "netsim.fct_small_vs_ideal", Unit: "ratio", Better: "lower", doc: "simulated: mean small-flow FCT of 'QVISOR: pFabric >> EDF' / 'PIFO: pFabric' (Fig. 4a)"},
	{Name: "netsim.deadline_met_share", Unit: "share", Better: "higher", doc: "simulated: CBROnTime/CBRDelivered under 'QVISOR: EDF >> pFabric'"},
	{Name: "netsim.max_fct_shift_ns", Unit: "ns", Better: "lower", doc: "simulated: largest per-flow completion shift of the sharded run vs Shards:1 (0 when the flow sets differ)"},
	{Name: "netsim.shard_counter_gap", Unit: "share", Better: "lower", doc: "simulated: largest relative difference of a packet counter between the sharded run and Shards:1"},
	// rank.
	{Name: "rank.rank_ns", Unit: "ns", Better: "lower", doc: "micro-replay of PFabric.Rank / EDF.Rank"},
	{Name: "rank.calls", Unit: "count", Better: "lower", doc: "packets emitted per pass (one Rank call each)"},
	// pkt.
	{Name: "pkt.pool_getput_ns", Unit: "ns", Better: "lower", doc: "Pool.Get+fill+Put per packet"},
	{Name: "pkt.pool_gets", Unit: "count", Better: "lower", doc: "Pool.Stats().Gets per pass"},
	{Name: "pkt.pool_reuse_ratio", Unit: "ratio", Better: "higher", doc: "1 - News/Gets"},
	// observers.
	{Name: "obs.overhead_share", Unit: "share", Better: "lower", doc: "ladder: wall with Registry / wall without - 1"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", doc: "ladder: +Recorder step / observers-off wall"},
	{Name: "trace.events_recorded", Unit: "count", Better: "lower", doc: "Recorder.Count() per pass"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower", doc: "micro-replay of a sampled Recorder.Record"},
	{Name: "slo.overhead_share", Unit: "share", Better: "lower", doc: "ladder: +Watchdog step / observers-off wall"},
	{Name: "slo.sampled_pkts", Unit: "count", Better: "lower", doc: "watchdog sampled enqueues per pass"},
	{Name: "slo.hook_ns", Unit: "ns", Better: "lower", doc: "micro-replay of a sampled PortWatch enqueue+dequeue"},
	{Name: "observers.total_share", Unit: "share", Better: "lower", doc: "ladder: wall with all three observers / wall without - 1"},
	// workload.
	{Name: "workload.gen_s", Unit: "s", Better: "lower", doc: "workload.Poisson + workload.CBR, or the (tenant, rank) / mutation stream"},
	{Name: "workload.flows", Unit: "count", Better: "higher", doc: "flows generated"},
	// go runtime.
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", doc: "NumGC delta over the untraced passes"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower", doc: "PauseTotalNs delta"},
	{Name: "go.alloc_bytes_per_op", Unit: "B", Better: "lower", doc: "TotalAlloc delta / ops"},
	{Name: "go.allocs_per_kop", Unit: "count", Better: "lower", doc: "Mallocs delta per 1000 ops"},
	// model and harness.
	{Name: "model.explained_share", Unit: "share", Better: "higher", doc: "sum of layer count x cost / measured wall; 1 - this is the model's tolerance"},
	{Name: "model.unexplained_ns_per_pkt", Unit: "ns", Better: "lower", doc: "measured minus modelled host ns per packet"},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: "lower", doc: "traced pass wall / untraced pass wall - 1"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Limits of the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxBound    = 0.25
)

// validateCatalog checks the metric lists against the contract's naming and
// size rules: names of letters, digits, '_', '.', '-', each used once; at
// most 16 end-to-end and 128 per-layer metrics; a setup_s metric in seconds.
func validateCatalog(e2e, layer []metric) error {
	if n := len(e2e); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(layer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := make(map[string]bool)
	setup := false
	for i, m := range append(append([]metric(nil), e2e...), layer...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: unit %q is not 1..16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
		if i < len(e2e) {
			if m.Bound <= 0 || m.Bound > maxBound {
				return fmt.Errorf("metric %q: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
			}
			if m.Name == "setup_s" {
				setup = m.Unit == "s" && m.Better == "lower"
			}
		} else if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	return nil
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract's four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill builds the metrics map for the given catalog from measured values.
// Every catalog entry appears; one the workload did not measure reports 0.
// A value under a name outside the catalog is an error — a misspelt metric
// must not vanish silently.
func fill(catalog []metric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(catalog))
	for _, m := range catalog {
		out[m.Name] = value{Value: got[m.Name], Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %q is not in the metric catalog", name)
		}
	}
	return out, nil
}
