package conform

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
)

// The UPS replay oracle, after Universal Packet Scheduling (Mittal et
// al.): record the departure schedule an ideal PIFO produces for a
// scenario, feed the *identical* arrivals and service pattern to each
// approximate backend, and measure how closely it reproduces the ideal
// schedule. Where the differential runner (diff.go) asks a boolean
// question per backend — "did an invariant break?" — the replay oracle
// asks a quantitative one: "how far from ideal?", scored as an
// exact-replay rate, UPS pair inversions, positional and rank-weighted
// displacement, and drop-profile divergence, with a per-tenant breakdown.
// The resulting scoreboard (see EXPERIMENTS.md) is what the synthesizer's
// backend auto-selection consumes via Profiles.

// Schedule is one backend's observable outcome of replaying a scenario:
// the delivered packets in departure order and the dropped packet IDs in
// callback order.
type Schedule struct {
	// Delivered holds value copies of the departed packets, in order.
	Delivered []pkt.Packet
	// Dropped holds the IDs of refused or evicted packets.
	Dropped []uint64
}

// TenantScore is the per-tenant slice of a ReplayScore.
type TenantScore struct {
	// Matched counts packets delivered by both backend and ideal.
	Matched int
	// Displaced counts matched packets whose restricted schedule
	// position differs from the ideal's.
	Displaced int
	// Displacement sums |actual position − ideal position| over the
	// tenant's matched packets.
	Displacement int64
	// DropDivergence counts the tenant's packets delivered by exactly
	// one of {backend, ideal}.
	DropDivergence int
}

// ReplayScore quantifies how faithfully one schedule reproduces the
// ideal. All positional metrics are computed on the *matched* set — the
// packets both schedules delivered — after restricting both schedules to
// it, so a backend is not charged positional error for packets the two
// drop profiles disagree on; that disagreement is scored separately as
// DropDivergence.
type ReplayScore struct {
	// Exact reports a perfect replay: identical delivered sequences and
	// identical drop sets.
	Exact bool
	// Matched counts packets delivered by both schedules.
	Matched int
	// PairInversions counts UPS inversions: matched pairs delivered in
	// the opposite relative order from the ideal schedule.
	PairInversions int64
	// Displacement sums |actual position − ideal position| over matched
	// packets (positions within the restricted schedules).
	Displacement int64
	// RankDisplacement sums |rank(actual[i]) − rank(ideal[i])| over
	// restricted schedule positions i — zero iff the backend delivers
	// the ideal rank profile, weighting each slot by how far in rank
	// space the substitution strayed.
	RankDisplacement int64
	// DropDivergence counts packets delivered by exactly one schedule.
	DropDivergence int
	// PerTenant breaks the score down by tenant ID.
	PerTenant map[pkt.TenantID]TenantScore
}

// ScoreReplay scores an actual schedule against the ideal one. Both
// schedules must be over the same offered trace (the caller's replay
// harness guarantees conservation; ScoreReplay only measures).
func ScoreReplay(ideal, actual Schedule) ReplayScore {
	s := ReplayScore{PerTenant: make(map[pkt.TenantID]TenantScore)}

	posIdeal := make(map[uint64]int, len(ideal.Delivered))
	for i := range ideal.Delivered {
		posIdeal[ideal.Delivered[i].ID] = i
	}
	inActual := make(map[uint64]bool, len(actual.Delivered))
	for i := range actual.Delivered {
		inActual[actual.Delivered[i].ID] = true
	}

	// Restrict both schedules to the matched set, preserving order.
	var restIdeal, restActual []pkt.Packet
	for _, p := range ideal.Delivered {
		if inActual[p.ID] {
			restIdeal = append(restIdeal, p)
		} else {
			s.DropDivergence++
			ts := s.PerTenant[p.Tenant]
			ts.DropDivergence++
			s.PerTenant[p.Tenant] = ts
		}
	}
	for _, p := range actual.Delivered {
		if _, ok := posIdeal[p.ID]; ok {
			restActual = append(restActual, p)
		} else {
			s.DropDivergence++
			ts := s.PerTenant[p.Tenant]
			ts.DropDivergence++
			s.PerTenant[p.Tenant] = ts
		}
	}
	s.Matched = len(restActual)

	// The actual restricted schedule as a permutation of the ideal
	// restricted positions.
	restPos := make(map[uint64]int, len(restIdeal))
	for i := range restIdeal {
		restPos[restIdeal[i].ID] = i
	}
	perm := make([]int, len(restActual))
	for i, p := range restActual {
		perm[i] = restPos[p.ID]
		d := int64(i - perm[i])
		if d < 0 {
			d = -d
		}
		s.Displacement += d
		ts := s.PerTenant[p.Tenant]
		ts.Matched++
		if d != 0 {
			ts.Displaced++
		}
		ts.Displacement += d
		s.PerTenant[p.Tenant] = ts
		if r := p.Rank - restIdeal[i].Rank; r >= 0 {
			s.RankDisplacement += r
		} else {
			s.RankDisplacement -= r
		}
	}
	s.PairInversions = countInversions(perm)

	// Exact: same delivered sequence and same drop set.
	s.Exact = len(ideal.Delivered) == len(actual.Delivered) &&
		len(ideal.Dropped) == len(actual.Dropped) &&
		s.DropDivergence == 0
	if s.Exact {
		for i := range ideal.Delivered {
			if ideal.Delivered[i].ID != actual.Delivered[i].ID {
				s.Exact = false
				break
			}
		}
	}
	if s.Exact {
		di := append([]uint64(nil), ideal.Dropped...)
		da := append([]uint64(nil), actual.Dropped...)
		sort.Slice(di, func(a, b int) bool { return di[a] < di[b] })
		sort.Slice(da, func(a, b int) bool { return da[a] < da[b] })
		for i := range di {
			if di[i] != da[i] {
				s.Exact = false
				break
			}
		}
	}
	return s
}

// countInversions returns the number of inverted pairs (i<j with
// perm[i]>perm[j]) via merge sort, O(n log n). perm is left unmodified.
func countInversions(perm []int) int64 {
	n := len(perm)
	if n < 2 {
		return 0
	}
	work := append([]int(nil), perm...)
	buf := make([]int, n)
	var merge func(lo, hi int) int64
	merge = func(lo, hi int) int64 {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		inv := merge(lo, mid) + merge(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if work[i] <= work[j] {
				buf[k] = work[i]
				i++
			} else {
				// work[j] jumps ahead of every remaining left element.
				inv += int64(mid - i)
				buf[k] = work[j]
				j++
			}
			k++
		}
		copy(buf[k:], work[i:mid])
		copy(buf[k+mid-i:hi], work[j:hi])
		copy(work[lo:hi], buf[lo:hi])
		return inv
	}
	return merge(0, n)
}

// TenantFidelity aggregates one tenant's replay fidelity for one backend
// across all scenarios of a sweep.
type TenantFidelity struct {
	// Tenant is the tenant's name ("t1"..., or "unknown").
	Tenant string
	// Matched, Displaced, Displacement, DropDivergence aggregate the
	// TenantScore fields.
	Matched, Displaced int
	Displacement       int64
	DropDivergence     int
}

// BackendFidelity is one backend's row of the fidelity scoreboard.
type BackendFidelity struct {
	// Backend names the discipline.
	Backend string
	// Scenarios counts scenarios replayed.
	Scenarios int
	// ExactReplays counts scenarios reproduced exactly (order + drops).
	ExactReplays int
	// Offered counts trace packets across all scenarios.
	Offered int
	// IdealDelivered counts packets the ideal schedule delivered.
	IdealDelivered int
	// Delivered counts packets this backend delivered.
	Delivered int
	// Matched counts packets delivered by both.
	Matched int
	// PairInversions, Displacement, RankDisplacement, DropDivergence
	// aggregate the per-scenario scores.
	PairInversions   int64
	Displacement     int64
	RankDisplacement int64
	DropDivergence   int
	// PerTenant holds the per-tenant breakdown, sorted by tenant name.
	PerTenant []TenantFidelity
	// Errors counts replay failures (conservation/pool leaks) — always a
	// bug in the backend under test.
	Errors int
}

// ExactReplayRate returns ExactReplays / Scenarios.
func (f BackendFidelity) ExactReplayRate() float64 {
	if f.Scenarios == 0 {
		return 0
	}
	return float64(f.ExactReplays) / float64(f.Scenarios)
}

// InversionsPerPacket returns PairInversions / Matched.
func (f BackendFidelity) InversionsPerPacket() float64 {
	if f.Matched == 0 {
		return 0
	}
	return float64(f.PairInversions) / float64(f.Matched)
}

// DisplacementPerPacket returns Displacement / Matched.
func (f BackendFidelity) DisplacementPerPacket() float64 {
	if f.Matched == 0 {
		return 0
	}
	return float64(f.Displacement) / float64(f.Matched)
}

// DropDivergenceRate returns DropDivergence / Offered.
func (f BackendFidelity) DropDivergenceRate() float64 {
	if f.Offered == 0 {
		return 0
	}
	return float64(f.DropDivergence) / float64(f.Offered)
}

// ReplayOptions parametrize a replay sweep.
type ReplayOptions struct {
	// Scenarios is the number of random scenarios (default 50).
	Scenarios int
	// Seed is the base seed; identical options reproduce identical
	// scoreboards byte for byte (scenario seeds derive exactly as in the
	// differential runner, so scenario i here is scenario i there).
	Seed int64
	// MaxPackets caps the per-scenario trace length (default 1500).
	MaxPackets int
	// Backends restricts the sweep to the named disciplines (nil or
	// "all" = all nine). Names are matched against ReplayBackendNames.
	Backends []string
}

func (o ReplayOptions) defaults() ReplayOptions {
	if o.Scenarios <= 0 {
		o.Scenarios = 50
	}
	if o.MaxPackets <= 0 {
		o.MaxPackets = 1500
	}
	return o
}

// ReplayReport is the result of a replay sweep: the per-backend fidelity
// scoreboard.
type ReplayReport struct {
	// Options echoes the (defaulted) options.
	Options ReplayOptions
	// Scenarios counts scenarios replayed; Packets the trace packets.
	Scenarios, Packets int
	// Backends holds the scoreboard rows in deterministic order.
	Backends []BackendFidelity
	// Errors retains replay failures (conservation bugs), capped at 50.
	Errors []string
	// TotalErrors counts every failure, including beyond the cap.
	TotalErrors int
}

// Passed reports whether every replay conserved packets.
func (r *ReplayReport) Passed() bool { return r.TotalErrors == 0 }

// replaySchedule runs the scenario through build at tightCapacity, where
// every backend faces real buffer and admission pressure, so the drop
// profile is part of the measurement rather than vacuously empty.
func replaySchedule(sc *Scenario, build buildFn) (Schedule, error) {
	res, err := replay(sc, tightCapacity, false, build, nil)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Delivered: res.dequeued, Dropped: res.drops}, nil
}

// RunReplay executes a replay sweep: for every scenario it records the
// ideal schedule under the reference PIFO, replays the identical arrivals
// through each selected backend, and aggregates the fidelity scoreboard.
func RunReplay(opts ReplayOptions) (*ReplayReport, error) {
	opts = opts.defaults()
	selected, err := selectTargets(opts.Backends, true)
	if err != nil {
		return nil, err
	}
	r := &ReplayReport{Options: opts}
	perTenant := make([]map[string]*TenantFidelity, len(selected))
	for i, b := range selected {
		r.Backends = append(r.Backends, BackendFidelity{Backend: b.name})
		perTenant[i] = make(map[string]*TenantFidelity)
	}
	addErr := func(msg string) {
		r.TotalErrors++
		if len(r.Errors) < 50 {
			r.Errors = append(r.Errors, msg)
		}
	}
	for i := 0; i < opts.Scenarios; i++ {
		rng := rand.New(rand.NewSource(scenarioSeed(opts.Seed, i)))
		sc, err := GenScenario(i, rng, opts.MaxPackets)
		if err != nil {
			addErr(fmt.Sprintf("scenario %d: %v", i, err))
			continue
		}
		r.Scenarios++
		r.Packets += len(sc.Trace)
		ideal, err := replaySchedule(sc, refPIFO)
		if err != nil {
			addErr(fmt.Sprintf("scenario %d [ideal]: %v", i, err))
			continue
		}
		nameOf := tenantNamer(sc)
		for bi, b := range selected {
			bf := &r.Backends[bi]
			actual, err := replaySchedule(sc, b.build)
			if err != nil {
				bf.Errors++
				addErr(fmt.Sprintf("scenario %d [%s]: %v", i, b.name, err))
				continue
			}
			score := ScoreReplay(ideal, actual)
			bf.Scenarios++
			if score.Exact {
				bf.ExactReplays++
			}
			bf.Offered += len(sc.Trace)
			bf.IdealDelivered += len(ideal.Delivered)
			bf.Delivered += len(actual.Delivered)
			bf.Matched += score.Matched
			bf.PairInversions += score.PairInversions
			bf.Displacement += score.Displacement
			bf.RankDisplacement += score.RankDisplacement
			bf.DropDivergence += score.DropDivergence
			ids := make([]int, 0, len(score.PerTenant))
			for id := range score.PerTenant {
				ids = append(ids, int(id))
			}
			sort.Ints(ids)
			for _, id := range ids {
				ts := score.PerTenant[pkt.TenantID(id)]
				name := nameOf(pkt.TenantID(id))
				tf := perTenant[bi][name]
				if tf == nil {
					tf = &TenantFidelity{Tenant: name}
					perTenant[bi][name] = tf
				}
				tf.Matched += ts.Matched
				tf.Displaced += ts.Displaced
				tf.Displacement += ts.Displacement
				tf.DropDivergence += ts.DropDivergence
			}
		}
	}
	for bi := range r.Backends {
		names := make([]string, 0, len(perTenant[bi]))
		for name := range perTenant[bi] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.Backends[bi].PerTenant = append(r.Backends[bi].PerTenant, *perTenant[bi][name])
		}
	}
	return r, nil
}

// tenantNamer maps the scenario's tenant IDs to their names ("unknown"
// for the out-of-set label the generator injects).
func tenantNamer(sc *Scenario) func(pkt.TenantID) string {
	byID := make(map[pkt.TenantID]string, len(sc.Tenants))
	for _, t := range sc.Tenants {
		byID[t.ID] = t.Name
	}
	return func(id pkt.TenantID) string {
		if n, ok := byID[id]; ok {
			return n
		}
		return "unknown"
	}
}

// Summary renders the fidelity scoreboard.
func (r *ReplayReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay fidelity: %d scenarios, %d packets, seed %d (UPS replay vs ideal PIFO, %d-byte buffers)\n",
		r.Scenarios, r.Packets, r.Options.Seed, tightCapacity)
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %10s %10s %11s %9s %6s\n",
		"backend", "exact", "delivered", "matched", "inv/pkt", "disp/pkt", "rankdisp", "drop-div", "err")
	for _, f := range r.Backends {
		fmt.Fprintf(&b, "%-10s %5.0f%% %9d %9d %10.3f %10.3f %11.1f %8.4f%% %6d\n",
			f.Backend, 100*f.ExactReplayRate(), f.Delivered, f.Matched,
			f.InversionsPerPacket(), f.DisplacementPerPacket(),
			rankDispPerPacket(f), 100*f.DropDivergenceRate(), f.Errors)
	}
	for _, f := range r.Backends {
		if f.ExactReplayRate() == 1 || len(f.PerTenant) == 0 {
			continue
		}
		fmt.Fprintf(&b, "per-tenant [%s]:", f.Backend)
		for _, tf := range f.PerTenant {
			fmt.Fprintf(&b, " %s: %d/%d displaced (Σ%d, drop-div %d)",
				tf.Tenant, tf.Displaced, tf.Matched, tf.Displacement, tf.DropDivergence)
		}
		fmt.Fprintf(&b, "\n")
	}
	if r.TotalErrors == 0 {
		fmt.Fprintf(&b, "PASS: every replay conserved packets\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d replay errors (%d shown)\n", r.TotalErrors, len(r.Errors))
		for _, e := range r.Errors {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}

func rankDispPerPacket(f BackendFidelity) float64 {
	if f.Matched == 0 {
		return 0
	}
	return float64(f.RankDisplacement) / float64(f.Matched)
}

// Profiles distills the scoreboard into the fidelity profiles the
// synthesizer's backend auto-selection consumes (core.SelectBackend,
// JointPolicy.DeployBest). Rows without a deployment backend (DRR realizes
// fair sharing, not rank order) or without scenarios are skipped.
func (r *ReplayReport) Profiles() []core.FidelityProfile {
	var out []core.FidelityProfile
	for _, f := range r.Backends {
		b, err := core.ParseBackend(f.Backend)
		if err != nil || f.Scenarios == 0 {
			continue
		}
		out = append(out, core.FidelityProfile{
			Backend:               b,
			ExactReplayRate:       f.ExactReplayRate(),
			InversionsPerPacket:   f.InversionsPerPacket(),
			DisplacementPerPacket: f.DisplacementPerPacket(),
			DropDivergenceRate:    f.DropDivergenceRate(),
		})
	}
	return out
}
