package experiments

import (
	"os"

	"qvisor/internal/workload"
	"testing"

	"qvisor/internal/sim"
)

func TestAblationQuantization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 20 * sim.Millisecond
	results, err := AblationQuantization(cfg, []int64{2, 1 << 20}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	coarse, fine := results[0].Small, results[1].Small
	if coarse.Count == 0 || fine.Count == 0 {
		t.Fatal("missing samples")
	}
	t.Logf("levels=2: %v  levels=2^20: %v", coarse.Mean, fine.Mean)
	// Two levels collapse pFabric's intra-tenant order; fine quantization
	// must not be worse.
	if fine.Mean > coarse.Mean {
		t.Errorf("fine quantization (%v) should not exceed coarse (%v)", fine.Mean, coarse.Mean)
	}
	pinResult(t, "quant", results)
}

func TestAblationQueues(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 20 * sim.Millisecond
	results, err := AblationQueues(cfg, []int{2, 32}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	few, many := results[0].Small, results[1].Small
	if few.Count == 0 || many.Count == 0 {
		t.Fatal("missing samples")
	}
	t.Logf("queues=2: %v  queues=32: %v", few.Mean, many.Mean)
	// More queues preserve more rank order; allow equality but not a
	// large regression.
	if many.Mean > 2*few.Mean {
		t.Errorf("32 queues (%v) dramatically worse than 2 (%v)", many.Mean, few.Mean)
	}
	pinResult(t, "queues", results)
}

func TestAblationRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 40 * sim.Millisecond
	res, err := AblationRuntime(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Static.Count == 0 || res.Adaptive.Count == 0 {
		t.Fatal("missing samples")
	}
	t.Logf("static: %v  adaptive: %v (resyntheses=%d)",
		res.Static.Mean, res.Adaptive.Mean, res.Resyntheses)
	if res.Resyntheses < 2 {
		t.Errorf("controller never adapted (version=%d)", res.Resyntheses)
	}
	pinResult(t, "runtime", res)
}

func TestTrafficShift(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 30 * sim.Millisecond
	res, err := TrafficShift(cfg, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.InteractiveFCT.Count == 0 {
		t.Fatal("no interactive flows during the background phase")
	}
	t.Logf("interactive small-flow FCT with background active: %v (deadline met %.0f%%)",
		res.InteractiveFCT.Mean, 100*res.DeadlineMet)
	// The background tier must not destroy interactive latency: small
	// flows stay under a millisecond at this scale.
	if res.InteractiveFCT.Mean > sim.Millisecond {
		t.Errorf("interactive FCT %v degraded by background tier", res.InteractiveFCT.Mean)
	}
	// Deadline traffic shares the top tier and keeps meeting deadlines.
	if res.DeadlineMet < 0.9 {
		t.Errorf("deadline-met fraction %.2f below 0.9", res.DeadlineMet)
	}
	pinResult(t, "shift", res)
}

func TestAblationBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 20 * sim.Millisecond
	results, err := AblationBackends(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("backends = %d, want 7", len(results))
	}
	byName := map[string]Result{}
	for _, br := range results {
		if br.Result.Small.Count == 0 {
			t.Fatalf("%v: no samples", br.Backend)
		}
		byName[br.Backend.String()] = br.Result
		t.Logf("%-10s small-flow mean FCT %v", br.Backend, br.Result.Small.Mean)
	}
	// The ideal PIFO backend should be at least as good as the plain
	// strict-priority bank (approximations cannot beat the real thing by
	// much; allow generous noise).
	if byName["pifo"].Small.Mean > 3*byName["sp-queues"].Small.Mean {
		t.Errorf("PIFO backend (%v) much worse than SP queues (%v)?",
			byName["pifo"].Small.Mean, byName["sp-queues"].Small.Mean)
	}
}

func TestMultiObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := ciConfig()
	cfg.Horizon = 30 * sim.Millisecond
	results, err := MultiObjective(cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]ObjectiveResult{}
	for _, r := range results {
		if r.Small.Count == 0 {
			t.Fatalf("%s: no samples", r.Name)
		}
		byName[r.Name] = r
		t.Logf("%-10s small %v  large %v", r.Name, r.Small.Mean, r.Large.Mean)
	}
	// pFabric is the small-flow optimum; pure FQ the slowest; the
	// composite must land at or below FQ.
	if byName["pfabric"].Small.Mean > byName["fq"].Small.Mean {
		t.Error("pFabric should beat FQ on small flows")
	}
	if byName["composite"].Small.Mean > byName["fq"].Small.Mean {
		t.Errorf("composite (%v) should not be worse than pure FQ (%v) for small flows",
			byName["composite"].Small.Mean, byName["fq"].Small.Mean)
	}
	pinResult(t, "multi", results)
}

func TestInversionStudy(t *testing.T) {
	results, err := InversionStudy(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]InversionResult{}
	for _, r := range results {
		byName[r.Scheduler] = r
		if r.Dequeues == 0 {
			t.Fatalf("%s: no dequeues", r.Scheduler)
		}
		t.Logf("%-12s inversions %6d / %6d (%.1f%%)  drops %d",
			r.Scheduler, r.Inversions, r.Dequeues, 100*r.Rate, r.Drops)
	}
	if byName["pifo"].Inversions != 0 {
		t.Error("ideal PIFO must have zero inversions")
	}
	// More SP-PIFO queues → fewer inversions; FIFO worst of all.
	if byName["sppifo:32"].Rate >= byName["sppifo:8"].Rate {
		t.Errorf("sppifo:32 (%.3f) should invert less than sppifo:8 (%.3f)",
			byName["sppifo:32"].Rate, byName["sppifo:8"].Rate)
	}
	if byName["fifo"].Rate <= byName["sppifo:8"].Rate {
		t.Errorf("FIFO (%.3f) should invert more than sppifo:8 (%.3f)",
			byName["fifo"].Rate, byName["sppifo:8"].Rate)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InversionStudy(0, 1); err == nil {
		t.Fatal("zero packets accepted")
	}
}

func TestRunFromCSVTrace(t *testing.T) {
	// Export a generated workload, re-import it via FlowsCSV, and verify
	// the simulation result is identical to the generated run.
	cfg := ciConfig()
	cfg.Horizon = 10 * sim.Millisecond
	direct, err := Run(cfg, PIFOIdeal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	flows, _, _, _, err := cfg.traffic(0.5)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/flows.csv"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteCSV(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.FlowsCSV = path
	fromCSV, err := Run(cfg, PIFOIdeal, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSV.Counters != direct.Counters {
		t.Fatalf("CSV-driven run diverged: %+v vs %+v", fromCSV.Counters, direct.Counters)
	}
	if fromCSV.Small.Mean != direct.Small.Mean {
		t.Fatalf("FCTs diverged: %v vs %v", fromCSV.Small.Mean, direct.Small.Mean)
	}
}
