package conform

import (
	"math/rand"
	"testing"
)

// The scenarios pinned here were found by scanning 50k random scenarios
// against the harness's previous per-scenario inversion budget, which
// held every approximation to the FIFO baseline plus max(16, fifo/8)
// slack. The first two genuinely violate it — SP-PIFO's queue-bound
// adaptation backfires 4–6× past the slack — which made the conform
// sweep flaky at roughly the 1-in-25k scenario level. The rest came
// within 40% of the budget. All are deterministic given (seed, index).
type pinnedScenario struct {
	seed        int64
	index       int
	violatesOld bool // breached the old fifo+max(16,fifo/8) budget
}

func pinnedInversionScenarios() []pinnedScenario {
	return []pinnedScenario{
		{677, 12, true},   // sppifo inv=219, fifo=145, old budget 163
		{886, 22, true},   // sppifo inv=247, fifo=145, old budget 163
		{122, 32, false},  // sppifo inv=516, fifo=467, old budget 525
		{1878, 3, false},  // sppifo inv=455, fifo=410, old budget 461
		{1515, 21, false}, // sppifo inv=359, fifo=332, old budget 373
	}
}

// pinnedReplays regenerates a pinned scenario and replays the three
// approximations the inversion bound applies to, returning the FIFO
// baseline alongside.
func pinnedReplays(t *testing.T, ps pinnedScenario) (fifo *replayResult, approx map[string]*replayResult) {
	t.Helper()
	rng := rand.New(rand.NewSource(scenarioSeed(ps.seed, ps.index)))
	sc, err := GenScenario(ps.index, rng, 1500)
	if err != nil {
		t.Fatalf("seed %d scenario %d: %v", ps.seed, ps.index, err)
	}
	fifo, err = replay(sc, hugeCapacity, true, targetNamed("fifo").build, nil)
	if err != nil {
		t.Fatal(err)
	}
	approx = map[string]*replayResult{}
	for _, name := range []string{"sppifo", "calendar", "admission"} {
		if approx[name], err = replay(sc, hugeCapacity, true, targetNamed(name).build, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fifo, approx
}

// TestInversionBudgetOldBoundViolations documents why the FIFO-relative
// budget was replaced: the pinned scenarios marked violatesOld
// deterministically breach it, so any harness carrying that budget flakes
// on them.
func TestInversionBudgetOldBoundViolations(t *testing.T) {
	for _, ps := range pinnedInversionScenarios() {
		fifo, approx := pinnedReplays(t, ps)
		slack := fifo.inv.Inversions / 8
		if slack < 16 {
			slack = 16
		}
		breached := approx["sppifo"].inv.Inversions > fifo.inv.Inversions+slack
		if breached != ps.violatesOld {
			t.Errorf("seed %d scenario %d: old-budget breach = %v, want %v (sppifo %d, fifo %d, slack %d)",
				ps.seed, ps.index, breached, ps.violatesOld,
				approx["sppifo"].inv.Inversions, fifo.inv.Inversions, slack)
		}
	}
}

// TestInversionBudgetRegression holds every pinned scenario — including
// the two that broke the old budget — to the replacement bound for 1000
// consecutive seeded runs: streaming inversions never exceed the pair
// inversions of the realized departure order against its ideal rank
// order. The bound is a theorem of the counter (each streaming inversion
// witnesses a distinct inverted pair), so a single failure here is a
// scheduler or counter bug, not an unlucky trace.
func TestInversionBudgetRegression(t *testing.T) {
	runs := 1000
	if testing.Short() {
		runs = 10
	}
	pins := pinnedInversionScenarios()
	for run := 0; run < runs; run++ {
		for _, ps := range pins {
			_, approx := pinnedReplays(t, ps)
			for name, res := range approx {
				pairInv := pairInversionsVsIdeal(res.dequeued)
				if int64(res.inv.Inversions) > pairInv {
					t.Fatalf("run %d seed %d scenario %d [%s]: %d streaming inversions exceed %d pair inversions",
						run, ps.seed, ps.index, name, res.inv.Inversions, pairInv)
				}
			}
		}
		if t.Failed() {
			break
		}
	}
}

// TestAggregateInversionDrift exercises the run-level ceilings that
// replaced the old budget's empirical role: a 25-scenario sweep stays
// under every target's drift ceiling, and the ceilings really are armed (a fabricated report with an inflated sppifo count trips
// them).
func TestAggregateInversionDrift(t *testing.T) {
	r, err := Run(Options{Scenarios: 25, Seed: 677, Backends: []string{"fifo", "sppifo", "calendar", "admission"}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("drift ceilings fired on a healthy sweep:\n%s", r.Summary())
	}
	fake := &Report{
		Scenarios: aggregateDriftFloor,
		Backends: []BackendStats{
			{Backend: "fifo", Inversions: 1000},
			{Backend: "sppifo", Inversions: 900}, // 0.90 > the 0.80 ceiling
		},
	}
	fake.Options = fake.Options.defaults()
	checkAggregateInversionDrift(fake)
	if fake.TotalViolations != 1 {
		t.Fatalf("inflated sppifo count raised %d violations, want 1", fake.TotalViolations)
	}
	short := &Report{
		Scenarios: aggregateDriftFloor - 1,
		Backends:  fake.Backends,
	}
	short.Options = short.Options.defaults()
	checkAggregateInversionDrift(short)
	if short.TotalViolations != 0 {
		t.Fatal("drift ceiling applied below the scenario floor")
	}
}
