package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"qvisor/internal/netsim"
	"qvisor/internal/obs"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// unpinnedFamilies are left out of a scheme digest: wall-clock times, and
// the handoff channel's high-water mark, which depends on how the shard
// goroutines happen to interleave. Everything else in the registry is a
// function of the seeded run.
var unpinnedFamilies = []string{
	sim.MetricSimBarrierWait,
	netsim.MetricShardBarrierWait,
	netsim.MetricShardBusy,
	sim.MetricSimChanHighwater,
	netsim.MetricShardChanMax,
}

// schemeDigest runs (scheme, load) under cfg with all three observers
// attached — a registry, a flight recorder at 1-in-8 and a watchdog at
// 1-in-8 — and hashes everything the run computed and everything the
// observers saw: the packet counters, the FCT summaries and the deadline
// share, every recorded event as JSON, the watchdog snapshot as JSON, and
// the registry's Prometheus exposition without unpinnedFamilies. The
// second return value is a handful of totals printed beside the hash so a
// drift says where it is.
func schemeDigest(t *testing.T, cfg Config, scheme Scheme, load float64) (uint64, string) {
	t.Helper()
	cfg.Registry = obs.NewRegistry()
	cfg.Trace = trace.NewFlightRecorder(trace.Options{FlowSample: 8})
	cfg.Watch = slo.New(slo.Config{SampleN: 8})
	r, err := Run(cfg, scheme, load)
	if err != nil {
		t.Fatalf("%v shards=%d: %v", scheme, cfg.Shards, err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%+v|%v\n", r.Counters, r.Small, r.Large, r.All, r.DeadlineMet)

	events, seq := cfg.Trace.Snapshot(trace.AllEvents)
	if seq > trace.DefaultRingSize {
		t.Fatalf("%v: %d events wrapped the ring; the digest would cover only the tail", scheme, seq)
	}
	enc := json.NewEncoder(h)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap := cfg.Watch.Snapshot()
	if err := enc.Encode(snap); err != nil {
		t.Fatal(err)
	}

	var expo bytes.Buffer
	if err := cfg.Registry.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
lines:
	for _, line := range strings.SplitAfter(expo.String(), "\n") {
		for _, name := range unpinnedFamilies {
			if strings.Contains(line, name) {
				continue lines
			}
		}
		h.Write([]byte(line))
	}
	var enqueued float64
	for _, f := range cfg.Registry.Snapshot().Families {
		if f.Name == "qvisor_sched_enqueued_total" {
			for _, m := range f.Metrics {
				enqueued += m.Value
			}
		}
	}
	return h.Sum64(), fmt.Sprintf("delivered=%d dropped=%d events=%d slo_rev=%d sched_enq=%.0f",
		r.Counters.Delivered, r.Counters.Dropped, seq, snap.Revision, enqueued)
}

// TestSchemeDigests pins one small seeded run of every Figure-4 scheme
// with the observers on, plus one sharded run: besides what the run
// computes (TestBackendDigests pins that per backend) the hash covers
// what the flight recorder, the watchdog and the registry reported about
// it, including every qvisor_sched_* and qvisor_netsim_* value. A refactor
// of the observers, the port or the schedulers proves it kept behaviour by
// leaving testdata/scheme_digests.golden alone; a change meant to move
// simulated or reported numbers regenerates it with -update and explains
// the diff.
func TestSchemeDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	type row struct {
		scheme Scheme
		shards int
	}
	var rows []row
	for _, s := range Schemes {
		rows = append(rows, row{s, 0})
	}
	rows = append(rows, row{QvisorShare, 2})

	var b strings.Builder
	for _, rw := range rows {
		cfg := ScaledConfig()
		cfg.Horizon = 20 * sim.Millisecond
		cfg.Shards = rw.shards
		sum, totals := schemeDigest(t, cfg, rw.scheme, 0.6)
		fmt.Fprintf(&b, "%-24s shards=%d %016x %s\n", rw.scheme, rw.shards, sum, totals)
	}
	matchGolden(t, "scheme_digests.golden", b.String())
}
