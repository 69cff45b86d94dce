package conform

import (
	"fmt"
	"strings"

	"qvisor/internal/core"
	"qvisor/internal/pifotree"
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
)

// hugeCapacity removes buffer pressure: the trace's byte volume is far
// below it, so every backend accepts every packet and differences reflect
// ordering semantics only.
const hugeCapacity = 1 << 30

// tightCapacity forces drops and evictions (32 full-size packets): the
// PIFO's buffer semantics (evict-worst, ties favor the queued packet) are
// checked differentially under it, and the replay sweep scores every
// discipline's drop profile under it.
const tightCapacity = 32 * 1500

// The scheduler parameters the targets are built with, in one place for
// both sweeps.
const (
	sppifoQueues    = 8
	calendarBuckets = 16
	bucketqBuckets  = 128 // exercises both FFS bitmap levels (two words + summary)
)

// buildFn constructs a target's scheduler for one scenario. cfg carries
// the sweep's buffer capacity and drop callback.
type buildFn func(sc *Scenario, cfg sched.Config) (sched.Scheduler, error)

// target is one row of the conformance table: how to build a scheduler for
// a scenario, the contract the differential sweep holds it to, whether the
// replay scoreboard scores it, and the drift ceiling its aggregate
// inversions must stay under.
type target struct {
	name  string
	build buildFn
	// capacity is the differential sweep's buffer (0 = hugeCapacity).
	// Inversions are counted only without buffer pressure.
	capacity int
	// monotone, when set, requires the scheduler's queue bounds to stay
	// non-decreasing from the highest-priority queue after every enqueue
	// and dequeue, and names the violation a breach raises.
	monotone ViolationKind
	// contract runs in order on the differential replay; a check that
	// returns false ends the row's checks for the scenario.
	contract []check
	// scored makes the target a row of the replay scoreboard.
	scored bool
	// ceiling bounds the target's aggregate streaming inversions over a
	// run of at least aggregateDriftFloor scenarios, as a multiple of the
	// fifo row's. The approximations, and only they, carry one; a row
	// without one (0) is exact: held to its discipline's oracle rather
	// than to bounds. The ratios are the sweep's own inversions column
	// over fifo's. At the 20-scenario floor, over seeds 1–750, they reach
	// at most sppifo 0.72, calendar 0.92, bucketq 0.77 and admission 0.61
	// (medians 0.60, 0.86, 0.65, 0.55), so each ceiling sits above its
	// row's worst seed. Each is also below 1, so a rank-blind FIFO in the
	// row's place (ratio exactly 1) trips it. The calendar's worst seed
	// comes closest to 1, so its ceiling is 0.99, the largest that does.
	ceiling float64
}

// targets is the conformance table, in report order: the exact reference
// and its two differential-only variants, the FIFO-family baselines, then
// the PIFO approximations. The differential sweep runs every row, the
// replay sweep the scored ones, and the drift check reads the ceilings.
var targets = []target{
	{
		name: "pifo", scored: true,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewPIFO(cfg), nil
		},
		contract: []check{conserved, sameOrder, noInversions},
	},
	{
		// The production PIFO under buffer pressure: every drop,
		// eviction and dequeue, in order, must match the oracle's.
		name: "pifo-tight", capacity: tightCapacity,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewPIFO(cfg), nil
		},
		contract: []check{sameEvents},
	},
	{
		name:     "pifotree",
		build:    buildPIFOTree,
		contract: []check{conserved, sameOrder},
	},
	{
		name: "fifo", scored: true,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewFIFO(cfg), nil
		},
		contract: []check{conserved, arrivalOrder},
	},
	{
		name: "drr", scored: true,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewDRR(sched.DRRConfig{Config: cfg}), nil
		},
		contract: []check{conserved, perFlowOrder},
	},
	{
		name: "sp-queues", scored: true,
		build: func(sc *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			dep, err := deploySPQueues(sc, cfg)
			if err != nil {
				return nil, err
			}
			return dep.Scheduler, nil
		},
		contract: []check{conserved, strictPriority},
	},
	{
		name: "sppifo", scored: true, ceiling: 0.80, monotone: ViolationSPPIFOBound,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewSPPIFO(cfg, sppifoQueues), nil
		},
		contract: []check{conserved, inversionBound},
	},
	{
		name: "calendar", scored: true, ceiling: 0.99,
		build: func(sc *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewCalendar(cfg, calendarBuckets, bucketWidth(sc, calendarBuckets)), nil
		},
		contract: []check{conserved, inversionBound, batchDrain(ViolationCalendarOrder, calendarBuckets, false)},
	},
	{
		name: "bucketq", scored: true, ceiling: 0.85,
		build: func(sc *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewBucketQ(cfg, bucketqBuckets, bucketWidth(sc, bucketqBuckets)), nil
		},
		contract: []check{conserved, inversionBound, batchDrain(ViolationBucketQOrder, bucketqBuckets, true)},
	},
	{
		// Without buffer pressure the quantile admission test always
		// passes, so AIFO must behave exactly like a plain FIFO.
		name: "aifo", scored: true,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewAIFO(sched.AIFOConfig{Config: cfg}), nil
		},
		contract: []check{noDrops, conserved, arrivalOrder},
	},
	{
		name: "admission", scored: true, ceiling: 0.75, monotone: ViolationAdmissionBound,
		build: func(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
			return sched.NewAdmission(sched.AdmissionConfig{Config: cfg}), nil
		},
		contract: []check{noDrops, conserved, inversionBound},
	},
}

// bucketWidth spreads the scenario's joint output range, plus the
// UnknownWorst rank just above it, over n buckets.
func bucketWidth(sc *Scenario, n int) int64 {
	return sched.BucketWidth(sc.Joint.Output.Span()+2, n)
}

// deploySPQueues deploys the joint policy's static queue mapping with one
// queue per strict tier, and at least eight.
func deploySPQueues(sc *Scenario, cfg sched.Config) (*core.Deployment, error) {
	return sc.Joint.Deploy(core.BackendSPQueues, core.DeployOptions{
		Queues: max(8, len(sc.Joint.Tiers)),
		Sched:  cfg,
	})
}

// buildPIFOTree builds a one-level PIFO tree — one leaf per tenant plus
// one for unknown labels, the packet rank as scheduling transaction at
// root and leaves — which must be observationally identical to the flat
// reference PIFO: the merge of per-leaf sorted sequences is the global
// sorted sequence, with arrival tie-breaks preserved by the per-node
// sequence numbers.
func buildPIFOTree(sc *Scenario, cfg sched.Config) (sched.Scheduler, error) {
	rankTx := func(p *pkt.Packet) int64 { return p.Rank }
	nameOf := tenantNamer(sc)
	tree := pifotree.NewTree(cfg, rankTx, func(p *pkt.Packet) string { return nameOf(p.Tenant) })
	for _, t := range sc.Tenants {
		if err := tree.AddLeaf("root", t.Name, rankTx); err != nil {
			return nil, err
		}
	}
	if err := tree.AddLeaf("root", "unknown", rankTx); err != nil {
		return nil, err
	}
	return tree, nil
}

// refPIFO builds the reference oracle as a target-shaped scheduler, so the
// ideal replays through the same harness as the targets.
func refPIFO(_ *Scenario, cfg sched.Config) (sched.Scheduler, error) {
	return refScheduler{NewRefPIFO(cfg.CapacityBytes, cfg.OnDrop)}, nil
}

// refScheduler adapts RefPIFO to sched.Scheduler.
type refScheduler struct{ *RefPIFO }

func (refScheduler) Name() string { return "ref-pifo" }
func (refScheduler) Reset()       {}

// selectTargets resolves a sweep's backend selection against the table, in
// table order; scored restricts it to the replay scoreboard's rows. No
// names, or "all", selects every row; an unknown name is an error naming
// the first one given.
func selectTargets(names []string, scored bool) ([]*target, error) {
	var pool []*target
	for i := range targets {
		if targets[i].scored || !scored {
			pool = append(pool, &targets[i])
		}
	}
	if len(names) == 0 {
		return pool, nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "all" {
			return pool, nil
		}
		want[n] = true
	}
	var out []*target
	for _, t := range pool {
		if want[t.name] {
			out = append(out, t)
			delete(want, t.name)
		}
	}
	for _, n := range names {
		if n = strings.TrimSpace(n); want[n] {
			return nil, fmt.Errorf("conform: unknown backend %q (known: %s)", n, strings.Join(targetNames(pool), ", "))
		}
	}
	return out, nil
}

func targetNames(ts []*target) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.name
	}
	return out
}

// BackendNames returns the names of every differential target.
func BackendNames() []string {
	ts, _ := selectTargets(nil, false)
	return targetNames(ts)
}

// ReplayBackendNames returns the names of the replay sweep's disciplines.
func ReplayBackendNames() []string {
	ts, _ := selectTargets(nil, true)
	return targetNames(ts)
}

// targetNamed returns the table row called name, or nil.
func targetNamed(name string) *target {
	for i := range targets {
		if targets[i].name == name {
			return &targets[i]
		}
	}
	return nil
}
