package experiments

import "testing"

// testChurnConfig is a small-budget churn run for CI: ~20 ms of traffic
// with 100 updates (5,000/sec).
func testChurnConfig() ChurnConfig {
	cfg := ScaledChurnConfig()
	cfg.Horizon = cfg.Horizon / 2 // 25 ms
	cfg.Updates = 100
	return cfg
}

// TestChurnEpochContract drives thousands of control-plane updates per
// second against a live simulation and verifies the RCU epoch contract:
// every update publishes a generation, no packet observes two
// generations, every rank rewrite matches its pinned generation's table,
// and the store fully drains.
func TestChurnEpochContract(t *testing.T) {
	cfg := testChurnConfig()
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.UpdatesScheduled != cfg.Updates {
		t.Errorf("scheduled %d updates, want %d", res.UpdatesScheduled, cfg.Updates)
	}
	if res.UpdatesApplied != res.UpdatesScheduled {
		t.Errorf("applied %d of %d updates; churn ops should always compile",
			res.UpdatesApplied, res.UpdatesScheduled)
	}
	// No adaptation event may be dropped: one resynthesis notification per
	// applied update, one generation per compile plus the initial one.
	if res.AdaptationEvents != res.UpdatesApplied {
		t.Errorf("adaptation events = %d, want %d", res.AdaptationEvents, res.UpdatesApplied)
	}
	if want := uint64(res.UpdatesApplied) + 1; res.Generations != want {
		t.Errorf("generations published = %d, want %d", res.Generations, want)
	}
	if res.Check.Transforms == 0 {
		t.Fatal("no transform events recorded; epoch path did not run")
	}
	if !res.Check.Passed() {
		t.Errorf("epoch conformance failed: %s", res.Check)
		for _, d := range res.Check.Details {
			t.Log("  " + d)
		}
	}
	if res.Check.MixedEpochPackets != 0 {
		t.Errorf("%d packets observed a mixed epoch", res.Check.MixedEpochPackets)
	}
	if res.DrainingAfter != 0 {
		t.Errorf("%d epochs still draining after the run", res.DrainingAfter)
	}
	// The incremental path must actually be exercised: bulk-tier updates
	// recompile one tier and reuse the rest.
	if res.Resynth.TierHits == 0 {
		t.Errorf("resynth cache never hit: %+v", res.Resynth)
	}
	if res.Resynth.Full != 0 {
		t.Errorf("resynth fell back to full synthesis %d times: %+v", res.Resynth.Full, res.Resynth)
	}
}

// TestChurnReportsPreprocStats: an Epochs-mode network runs every pinned
// generation through one pre-processor, so the run reports how many ranks
// it rewrote — exactly the transform events the recorder saw (the test
// run fits the ring), none unknown since the policy covers both tenants.
func TestChurnReportsPreprocStats(t *testing.T) {
	res, err := RunChurn(testChurnConfig())
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if got, want := res.Preproc.Processed, uint64(res.Check.Transforms); got == 0 || got != want {
		t.Errorf("pre-processor rewrote %d packets, recorder saw %d transform events", got, want)
	}
	if res.Preproc.Unknown != 0 {
		t.Errorf("unknown-tenant packets under a covering policy: %+v", res.Preproc)
	}
}

// TestChurnBoundedDisruption compares the churn run against an
// update-free baseline on the identical workload: sustained policy churn
// must not melt the data plane.
func TestChurnBoundedDisruption(t *testing.T) {
	cfg := testChurnConfig()
	base := cfg
	base.Updates = 0
	bres, err := RunChurn(base)
	if err != nil {
		t.Fatalf("baseline RunChurn: %v", err)
	}
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatalf("churn RunChurn: %v", err)
	}
	if bres.Counters.Delivered == 0 {
		t.Fatal("baseline delivered nothing")
	}
	ratio := float64(res.Counters.Delivered) / float64(bres.Counters.Delivered)
	if ratio < 0.90 || ratio > 1.10 {
		t.Errorf("churn delivered %d packets vs baseline %d (ratio %.3f); disruption unbounded",
			res.Counters.Delivered, bres.Counters.Delivered, ratio)
	}
	t.Logf("baseline delivered=%d dropped=%d; churn delivered=%d dropped=%d (ratio %.3f, %d updates, max draining %d)",
		bres.Counters.Delivered, bres.Counters.Dropped,
		res.Counters.Delivered, res.Counters.Dropped, ratio,
		res.UpdatesApplied, res.MaxDraining)
}

// TestChurnEpochDeploy exercises the per-epoch deployment path: every
// generation carries a compiled sp-queues deployment.
func TestChurnEpochDeploy(t *testing.T) {
	cfg := testChurnConfig()
	cfg.Updates = 50
	cfg.EpochDeploy = true
	res, err := RunChurn(cfg)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if !res.Check.Passed() {
		t.Errorf("epoch conformance failed with per-epoch deployment: %s", res.Check)
	}
}

// TestMeasureResynthLatency sanity-checks the latency harness at a CI
// scale; `bash bench/run.sh` takes the 1k-tenant measurement
// (core.resynth_us vs core.synth_full_us on the control_churn workload).
func TestMeasureResynthLatency(t *testing.T) {
	res, err := MeasureResynthLatency(128, 20, 1)
	if err != nil {
		t.Fatalf("MeasureResynthLatency: %v", err)
	}
	if res.IncrementalNs <= 0 || res.FullNs <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.Stats.TierHits == 0 {
		t.Errorf("incremental path never hit the tier cache: %+v", res.Stats)
	}
	if res.Speedup <= 1.0 {
		t.Errorf("incremental resynthesis not faster than full: %.2fx (%+v)", res.Speedup, res)
	}
	t.Logf("%d tenants, %d rounds: incremental %d ns/update, full %d ns/update (%.1fx)",
		res.Tenants, res.Rounds, res.IncrementalNs, res.FullNs, res.Speedup)
}
