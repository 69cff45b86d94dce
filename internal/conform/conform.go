// Package conform is QVISOR's conformance subsystem: a differential and
// metamorphic test harness that cross-checks every scheduler backend, the
// PIFO tree, and the control-plane synthesizer against slow,
// obviously-correct reference models.
//
// QVISOR's central claim (§3.2) is that the synthesized rank transforms
// make one joint scheduler behave *as if* each tenant ran its own policy.
// This package makes that claim mechanically checkable, in the spirit of
// two lines of related work: Formal Abstractions for Packet Scheduling
// (Mohan et al.) gives PIFO-tree behaviours a precise reference semantics
// worth testing against, and Universal Packet Scheduling (Mittal et al.)
// frames "replay an ideal schedule and count deviations" as the natural
// conformance metric.
//
// The harness has four parts:
//
//   - a reference oracle (oracle.go): an O(n log n) sorted-list PIFO with
//     sched.PIFO's exact buffer semantics, and a brute-force transform
//     evaluator using arbitrary-precision arithmetic;
//   - seeded scenario generators (scenario.go): random tenant sets with
//     random rank bounds, random valid policy strings built through the
//     internal/policy AST, and random packet traces derived from
//     internal/workload flow generators;
//   - one table of targets (targets.go): for every scheduler, how to build
//     it for a scenario, the contract the differential runner (diff.go)
//     holds it to — exact dequeue-order equality where the backend is
//     exact (PIFO, PIFO tree), bounded inversion/deviation properties
//     where it approximates (SP-PIFO, calendar, bucket queue, admission) —
//     whether the replay scoreboard (replay.go) scores it, and its
//     aggregate drift ceiling against the FIFO baseline;
//   - metamorphic properties of the synthesizer (metamorphic.go):
//     rank-shift invariance, tier-composition congruence, and idempotence
//     of re-synthesis.
//
// The same entry point backs `go test ./internal/conform` and the
// long-running soak CLI cmd/qvisor-conform.
package conform

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// ViolationKind classifies a conformance failure.
type ViolationKind string

const (
	// ViolationTransformMismatch: production Transform.Apply disagrees
	// with the exact big-integer reference in the integer regime.
	ViolationTransformMismatch ViolationKind = "transform-mismatch"
	// ViolationTransformRange: a transform output escaped its declared
	// output bounds.
	ViolationTransformRange ViolationKind = "transform-range"
	// ViolationTransformMonotone: a transform is not monotone.
	ViolationTransformMonotone ViolationKind = "transform-monotone"
	// ViolationExactOrder: an exact backend's dequeue sequence diverged
	// from the reference PIFO.
	ViolationExactOrder ViolationKind = "exact-order"
	// ViolationDropMismatch: an exact backend's drop/evict stream diverged
	// from the reference PIFO under buffer pressure.
	ViolationDropMismatch ViolationKind = "drop-mismatch"
	// ViolationConservation: a backend lost or duplicated packets
	// (accepted multiset != dequeued multiset after draining).
	ViolationConservation ViolationKind = "conservation"
	// ViolationArrivalOrder: a FIFO-class backend reordered packets that
	// must stay in arrival order (FIFO globally; MQ per queue; DRR per
	// flow).
	ViolationArrivalOrder ViolationKind = "arrival-order"
	// ViolationInversionBound: an approximating backend exceeded its
	// inversion bound (more inversions than the rank-oblivious FIFO
	// baseline on the identical trace).
	ViolationInversionBound ViolationKind = "inversion-bound"
	// ViolationSPPIFOBound: SP-PIFO's queue bounds lost monotonicity.
	ViolationSPPIFOBound ViolationKind = "sppifo-bound"
	// ViolationCalendarOrder: a batch-mode calendar drained buckets out of
	// ascending order.
	ViolationCalendarOrder ViolationKind = "calendar-bucket"
	// ViolationBucketQOrder: a batch-mode bucket queue broke its
	// quantization contract (quantized index decreased, or FIFO order
	// broke within one quantized index).
	ViolationBucketQOrder ViolationKind = "bucketq-order"
	// ViolationAdmission: an admission-controlled backend (AIFO or the
	// combined admission+scheduling backend) dropped packets with no
	// admission pressure (its no-pressure behaviour must equal FIFO).
	ViolationAdmission ViolationKind = "admission"
	// ViolationAdmissionBound: the admission backend's dynamic per-queue
	// bounds lost monotonicity.
	ViolationAdmissionBound ViolationKind = "admission-bound"
	// ViolationMetamorphic: a synthesizer metamorphic property failed.
	ViolationMetamorphic ViolationKind = "metamorphic"
	// ViolationScenario: a scenario failed to build (synthesis or policy
	// round-trip error) — always a bug, the generator only emits valid
	// inputs.
	ViolationScenario ViolationKind = "scenario"
)

// Violation is one conformance failure.
type Violation struct {
	// Scenario is the scenario index the violation occurred in.
	Scenario int
	// Backend names the backend involved ("" for control-plane checks).
	Backend string
	// Kind classifies the failure.
	Kind ViolationKind
	// Detail is a human-readable explanation.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	b := v.Backend
	if b == "" {
		b = "synth"
	}
	return fmt.Sprintf("scenario %d [%s] %s: %s", v.Scenario, b, v.Kind, v.Detail)
}

func violationf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

// Options parametrize a conformance run.
type Options struct {
	// Scenarios is the number of random scenarios (default 50).
	Scenarios int
	// Seed is the base seed; every scenario derives its private
	// deterministic source from it, so identical options reproduce
	// identical reports byte for byte.
	Seed int64
	// MaxPackets caps the per-scenario trace length (default 1500).
	MaxPackets int
	// Backends restricts the differential runner to the named backends
	// (nil or "all" = every registered backend). Names are matched
	// against BackendNames.
	Backends []string
	// MaxViolations caps how many violations are retained in the report
	// (counting continues past the cap; default 50).
	MaxViolations int
}

func (o Options) defaults() Options {
	if o.Scenarios <= 0 {
		o.Scenarios = 50
	}
	if o.MaxPackets <= 0 {
		o.MaxPackets = 1500
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 50
	}
	return o
}

// BackendStats aggregates one backend's behaviour across all scenarios.
type BackendStats struct {
	// Backend names the discipline.
	Backend string
	// Exact reports whether the backend is held to exact oracle equality.
	Exact bool
	// Enqueued, Dequeued, Dropped count packets across all scenarios.
	Enqueued, Dequeued, Dropped int
	// Inversions counts rank-order violations (approximations only; exact
	// backends must report zero).
	Inversions int
	// MaxInversionMagnitude is the worst observed inversion magnitude.
	MaxInversionMagnitude int64
	// Violations counts conformance failures attributed to this backend.
	Violations int
}

// InversionRate returns Inversions / Dequeued.
func (b BackendStats) InversionRate() float64 {
	if b.Dequeued == 0 {
		return 0
	}
	return float64(b.Inversions) / float64(b.Dequeued)
}

// Report is the result of a conformance run.
type Report struct {
	// Options echoes the (defaulted) options of the run.
	Options Options
	// Scenarios counts scenarios executed.
	Scenarios int
	// Packets counts trace packets generated across all scenarios.
	Packets int
	// MetamorphicChecks counts synthesizer properties verified.
	MetamorphicChecks int
	// TransformChecks counts transform/reference comparisons.
	TransformChecks int
	// Backends holds per-backend aggregates in deterministic order.
	Backends []BackendStats
	// TotalViolations counts every violation, including those beyond the
	// retention cap.
	TotalViolations int
	// Violations retains the first Options.MaxViolations failures.
	Violations []Violation
}

// Passed reports whether the run found no violations.
func (r *Report) Passed() bool { return r.TotalViolations == 0 }

// WriteSummary renders the report as a table.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d scenarios, %d packets, seed %d\n",
		r.Scenarios, r.Packets, r.Options.Seed)
	fmt.Fprintf(&b, "checks: %d transform, %d metamorphic\n",
		r.TransformChecks, r.MetamorphicChecks)
	fmt.Fprintf(&b, "%-12s %-6s %9s %9s %8s %10s %9s %6s\n",
		"backend", "class", "enqueued", "dequeued", "dropped", "inversions", "inv-rate", "viol")
	for _, bs := range r.Backends {
		class := "approx"
		if bs.Exact {
			class = "exact"
		}
		fmt.Fprintf(&b, "%-12s %-6s %9d %9d %8d %10d %9.4f %6d\n",
			bs.Backend, class, bs.Enqueued, bs.Dequeued, bs.Dropped,
			bs.Inversions, bs.InversionRate(), bs.Violations)
	}
	if r.TotalViolations == 0 {
		fmt.Fprintf(&b, "PASS: no violations\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d violations (%d shown)\n", r.TotalViolations, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// report accumulation helpers.

func (r *Report) addViolation(v Violation) {
	r.TotalViolations++
	if len(r.Violations) < r.Options.MaxViolations {
		r.Violations = append(r.Violations, v)
	}
	for i := range r.Backends {
		if r.Backends[i].Backend == v.Backend {
			r.Backends[i].Violations++
			break
		}
	}
}

// scenarioSeed derives scenario i's private seed from the base seed with a
// SplitMix64 avalanche mix (same construction as experiments.TrialSeeds),
// so scenarios are mutually decorrelated and independent of evaluation
// order.
func scenarioSeed(base int64, i int) int64 {
	x := uint64(base) + uint64(i+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// Run executes a full conformance run: for every scenario it generates a
// random joint policy and packet trace, verifies the synthesizer's
// metamorphic properties, checks every transform against the
// brute-force reference, and replays the trace differentially through
// every selected backend and the reference oracle.
func Run(opts Options) (*Report, error) {
	opts = opts.defaults()
	selected, err := selectTargets(opts.Backends, false)
	if err != nil {
		return nil, err
	}
	return run(opts, selected), nil
}

// run is Run over resolved targets.
func run(opts Options, selected []*target) *Report {
	r := &Report{Options: opts}
	for _, t := range selected {
		r.Backends = append(r.Backends, BackendStats{Backend: t.name, Exact: t.ceiling == 0})
	}
	for i := 0; i < opts.Scenarios; i++ {
		rng := rand.New(rand.NewSource(scenarioSeed(opts.Seed, i)))
		sc, err := GenScenario(i, rng, opts.MaxPackets)
		if err != nil {
			r.addViolation(Violation{Scenario: i, Kind: ViolationScenario, Detail: err.Error()})
			continue
		}
		r.Scenarios++
		r.Packets += len(sc.Trace)
		checkTransforms(r, sc)
		checkMetamorphic(r, sc)
		runDifferential(r, sc, selected)
	}
	checkAggregateInversionDrift(r)
	sort.SliceStable(r.Violations, func(a, b int) bool {
		return r.Violations[a].Scenario < r.Violations[b].Scenario
	})
	return r
}

// aggregateDriftFloor is the minimum scenario count before the aggregate
// inversion-drift ceilings apply: single scenarios can legitimately land
// well above a backend's long-run rate (the reason the old per-scenario
// FIFO-relative budget flaked), but across ≥20 scenarios the rates
// concentrate tightly.
const aggregateDriftFloor = 20

// checkAggregateInversionDrift holds every row with a drift ceiling (see
// target.ceiling) to it. It needs the FIFO baseline row for scale, so it
// is skipped when fifo was not among the selected backends or the run is
// too short for the aggregate rates to have concentrated.
func checkAggregateInversionDrift(r *Report) {
	if r.Scenarios < aggregateDriftFloor {
		return
	}
	var fifo *BackendStats
	for i := range r.Backends {
		if r.Backends[i].Backend == "fifo" {
			fifo = &r.Backends[i]
		}
	}
	if fifo == nil || fifo.Inversions == 0 {
		return
	}
	for i := range r.Backends {
		st := &r.Backends[i]
		t := targetNamed(st.Backend)
		if t == nil || t.ceiling == 0 {
			continue
		}
		if limit := t.ceiling * float64(fifo.Inversions); float64(st.Inversions) > limit {
			r.addViolation(Violation{
				Scenario: -1, Backend: st.Backend, Kind: ViolationInversionBound,
				Detail: violationf("aggregate inversions %d exceed %.2f× the FIFO baseline's %d over %d scenarios",
					st.Inversions, t.ceiling, fifo.Inversions, r.Scenarios),
			})
		}
	}
}

// checkTransforms verifies every tenant transform of the scenario against
// the brute-force reference evaluator.
func checkTransforms(r *Report, sc *Scenario) {
	for _, t := range sc.Tenants {
		tr, ok := sc.Joint.Transforms[t.ID]
		if !ok {
			r.addViolation(Violation{
				Scenario: sc.Index, Kind: ViolationScenario,
				Detail: violationf("tenant %q has no transform", t.Name),
			})
			continue
		}
		r.TransformChecks++
		if v := CheckTransform(tr, TransformSamples(tr)); v != nil {
			v.Scenario = sc.Index
			r.addViolation(*v)
		}
	}
}
