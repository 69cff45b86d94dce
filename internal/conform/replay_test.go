package conform

import (
	"reflect"
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
)

// rp builds a delivered packet for the hand-computed schedules.
func rp(id uint64, tenant pkt.TenantID, rank int64) pkt.Packet {
	return pkt.Packet{ID: id, Tenant: tenant, Rank: rank}
}

// TestScoreReplayTable checks ScoreReplay against hand-computed 4–8
// packet schedules. Every expectation below is derivable on paper from
// the metric definitions: positions are within the schedules restricted
// to the matched (delivered-by-both) set, pair inversions count matched
// pairs in the opposite relative order from ideal, and drop divergence
// counts packets delivered by exactly one side.
func TestScoreReplayTable(t *testing.T) {
	cases := []struct {
		name          string
		ideal, actual Schedule
		want          ReplayScore
	}{
		{
			// Four packets, two tenants, byte-identical schedules.
			name: "exact replay",
			ideal: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 2, 20), rp(3, 1, 30), rp(4, 2, 40)},
				Dropped:   []uint64{9},
			},
			actual: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 2, 20), rp(3, 1, 30), rp(4, 2, 40)},
				Dropped:   []uint64{9},
			},
			want: ReplayScore{
				Exact: true, Matched: 4,
				PerTenant: map[pkt.TenantID]TenantScore{
					1: {Matched: 2}, 2: {Matched: 2},
				},
			},
		},
		{
			// Same delivered multiset, adjacent swap of packets 2 and 3:
			// one inverted pair, both displaced by one position, rank
			// displacement |20-30| + |30-20| = 20. Same drop set, but the
			// order diverged, so Exact is false.
			name: "single inversion",
			ideal: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 1, 20), rp(3, 2, 30), rp(4, 2, 40)},
			},
			actual: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(3, 2, 30), rp(2, 1, 20), rp(4, 2, 40)},
			},
			want: ReplayScore{
				Matched: 4, PairInversions: 1, Displacement: 2, RankDisplacement: 20,
				PerTenant: map[pkt.TenantID]TenantScore{
					1: {Matched: 2, Displaced: 1, Displacement: 1},
					2: {Matched: 2, Displaced: 1, Displacement: 1},
				},
			},
		},
		{
			// Admission-drop divergence: the ideal delivers 1,2,3 and
			// drops 4 (evict-worst); the backend's admission gate refused
			// 2 (rank 99) and delivered 4 instead. Matched set is {1,3} in
			// the same relative order: no inversions, no displacement.
			// Packets 2 and 4 are each delivered by exactly one side:
			// drop divergence 2, charged to their tenants.
			name: "admission drop divergence",
			ideal: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 2, 99), rp(3, 1, 100)},
				Dropped:   []uint64{4},
			},
			actual: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(3, 1, 100), rp(4, 2, 120)},
				Dropped:   []uint64{2},
			},
			want: ReplayScore{
				Matched: 2, DropDivergence: 2,
				PerTenant: map[pkt.TenantID]TenantScore{
					1: {Matched: 2},
					2: {DropDivergence: 2},
				},
			},
		},
		{
			// Eight packets, full reversal: C(4,2)=6 inversions among the
			// four matched (even-ID) packets... carefully: ideal delivers
			// 1..8, actual delivers 8..1. All eight match; reversal of n=8
			// has C(8,2)=28 inverted pairs, displacement Σ|i-(7-i)| = 2*(7+5+3+1)
			// = 32, rank displacement Σ|rank diff| with ranks 1..8 likewise
			// doubled pairwise = 32.
			name: "full reversal",
			ideal: Schedule{
				Delivered: []pkt.Packet{
					rp(1, 1, 1), rp(2, 1, 2), rp(3, 1, 3), rp(4, 1, 4),
					rp(5, 1, 5), rp(6, 1, 6), rp(7, 1, 7), rp(8, 1, 8),
				},
			},
			actual: Schedule{
				Delivered: []pkt.Packet{
					rp(8, 1, 8), rp(7, 1, 7), rp(6, 1, 6), rp(5, 1, 5),
					rp(4, 1, 4), rp(3, 1, 3), rp(2, 1, 2), rp(1, 1, 1),
				},
			},
			want: ReplayScore{
				Matched: 8, PairInversions: 28, Displacement: 32, RankDisplacement: 32,
				PerTenant: map[pkt.TenantID]TenantScore{
					1: {Matched: 8, Displaced: 8, Displacement: 32},
				},
			},
		},
		{
			// Same delivered sequence but different drop sets: not exact,
			// even though all positional metrics are zero.
			name: "drop set mismatch only",
			ideal: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 1, 20)},
				Dropped:   []uint64{3},
			},
			actual: Schedule{
				Delivered: []pkt.Packet{rp(1, 1, 10), rp(2, 1, 20)},
				Dropped:   []uint64{4},
			},
			want: ReplayScore{
				Matched: 2,
				PerTenant: map[pkt.TenantID]TenantScore{
					1: {Matched: 2},
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ScoreReplay(tc.ideal, tc.actual)
			if got.Exact != tc.want.Exact {
				t.Errorf("Exact = %v, want %v", got.Exact, tc.want.Exact)
			}
			if got.Matched != tc.want.Matched {
				t.Errorf("Matched = %d, want %d", got.Matched, tc.want.Matched)
			}
			if got.PairInversions != tc.want.PairInversions {
				t.Errorf("PairInversions = %d, want %d", got.PairInversions, tc.want.PairInversions)
			}
			if got.Displacement != tc.want.Displacement {
				t.Errorf("Displacement = %d, want %d", got.Displacement, tc.want.Displacement)
			}
			if got.RankDisplacement != tc.want.RankDisplacement {
				t.Errorf("RankDisplacement = %d, want %d", got.RankDisplacement, tc.want.RankDisplacement)
			}
			if got.DropDivergence != tc.want.DropDivergence {
				t.Errorf("DropDivergence = %d, want %d", got.DropDivergence, tc.want.DropDivergence)
			}
			if !reflect.DeepEqual(got.PerTenant, tc.want.PerTenant) {
				t.Errorf("PerTenant = %+v, want %+v", got.PerTenant, tc.want.PerTenant)
			}
		})
	}
}

// TestScoreReplayDropOrderIrrelevant: the drop *set* matters for
// exactness, not the callback order (evict-worst can fire callbacks in
// backend-specific order for identical outcomes).
func TestScoreReplayDropOrderIrrelevant(t *testing.T) {
	ideal := Schedule{
		Delivered: []pkt.Packet{rp(1, 1, 10)},
		Dropped:   []uint64{2, 3},
	}
	actual := Schedule{
		Delivered: []pkt.Packet{rp(1, 1, 10)},
		Dropped:   []uint64{3, 2},
	}
	if got := ScoreReplay(ideal, actual); !got.Exact {
		t.Errorf("permuted drop callbacks broke exactness: %+v", got)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		perm []int
		want int64
	}{
		{nil, 0},
		{[]int{0}, 0},
		{[]int{0, 1, 2, 3}, 0},
		{[]int{1, 0}, 1},
		{[]int{3, 2, 1, 0}, 6},
		{[]int{2, 0, 1}, 2},
		{[]int{0, 3, 1, 2}, 2},
	}
	for _, tc := range cases {
		before := append([]int(nil), tc.perm...)
		if got := countInversions(tc.perm); got != tc.want {
			t.Errorf("countInversions(%v) = %d, want %d", tc.perm, got, tc.want)
		}
		if !reflect.DeepEqual(before, append([]int(nil), tc.perm...)) {
			t.Errorf("countInversions mutated its argument: %v -> %v", before, tc.perm)
		}
	}
}

// TestRunReplaySmall runs a small sweep end to end: the exact PIFO
// discipline must replay every scenario perfectly, every replay must
// conserve packets, and two identical invocations must agree field for
// field (the scoreboard is deterministic).
func TestRunReplaySmall(t *testing.T) {
	opts := ReplayOptions{Scenarios: 8, Seed: 42}
	r1, err := RunReplay(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Passed() {
		t.Fatalf("replay errors:\n%s", strings.Join(r1.Errors, "\n"))
	}
	if r1.Scenarios != 8 {
		t.Fatalf("Scenarios = %d", r1.Scenarios)
	}
	if got := len(r1.Backends); got != len(ReplayBackendNames()) {
		t.Fatalf("backends = %d, want %d", got, len(ReplayBackendNames()))
	}
	byName := map[string]BackendFidelity{}
	for _, f := range r1.Backends {
		byName[f.Backend] = f
	}
	pifo := byName["pifo"]
	if pifo.ExactReplays != pifo.Scenarios || pifo.PairInversions != 0 ||
		pifo.Displacement != 0 || pifo.DropDivergence != 0 {
		t.Errorf("exact PIFO did not replay perfectly: %+v", pifo)
	}
	// Admission control (aifo, admission) tracks the ideal drop profile
	// far better than buffer-pressure-only tail drop (fifo).
	if byName["admission"].DropDivergenceRate() >= byName["fifo"].DropDivergenceRate() {
		t.Errorf("admission drop divergence %.4f not below fifo's %.4f",
			byName["admission"].DropDivergenceRate(), byName["fifo"].DropDivergenceRate())
	}
	r2, err := RunReplay(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("identical options produced different scoreboards")
	}
}

// TestRunReplayBackendSelection: restricting the sweep works and unknown
// names are rejected.
func TestRunReplayBackendSelection(t *testing.T) {
	r, err := RunReplay(ReplayOptions{Scenarios: 2, Seed: 1, Backends: []string{"pifo", "admission"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Backends) != 2 || r.Backends[0].Backend != "pifo" || r.Backends[1].Backend != "admission" {
		t.Fatalf("selected backends = %+v", r.Backends)
	}
	if _, err := RunReplay(ReplayOptions{Scenarios: 1, Backends: []string{"nope"}}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestReplayProfiles: the scoreboard distills into core fidelity profiles
// for every discipline with a deployment backend (all but drr), and the
// profile values match the scoreboard rates.
func TestReplayProfiles(t *testing.T) {
	r, err := RunReplay(ReplayOptions{Scenarios: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	profiles := r.Profiles()
	if len(profiles) != len(r.Backends)-1 {
		t.Fatalf("profiles = %d, want %d (drr has no deployment backend)",
			len(profiles), len(r.Backends)-1)
	}
	seen := map[core.Backend]bool{}
	for _, p := range profiles {
		seen[p.Backend] = true
	}
	for _, b := range []core.Backend{core.BackendPIFO, core.BackendFIFO, core.BackendSPQueues,
		core.BackendSPPIFO, core.BackendCalendar, core.BackendAIFO, core.BackendAdmission} {
		if !seen[b] {
			t.Errorf("no profile for backend %v", b)
		}
	}
	byBackend := map[core.Backend]BackendFidelity{}
	for _, f := range r.Backends {
		if b, err := core.ParseBackend(f.Backend); err == nil {
			byBackend[b] = f
		}
	}
	for _, p := range profiles {
		f := byBackend[p.Backend]
		if p.ExactReplayRate != f.ExactReplayRate() || p.DropDivergenceRate != f.DropDivergenceRate() {
			t.Errorf("%v: profile %+v diverges from scoreboard %+v", p.Backend, p, f)
		}
	}
	// With an ideal PIFO in the feasible set, selection must pick it.
	best, ok := core.SelectBackend(profiles, nil)
	if !ok || best.Backend != core.BackendPIFO {
		t.Errorf("SelectBackend picked %v, want pifo", best.Backend)
	}
}

// TestReplaySummaryDeterministic pins the Summary rendering to be
// byte-identical across runs (CI compares scoreboard output textually).
func TestReplaySummaryDeterministic(t *testing.T) {
	opts := ReplayOptions{Scenarios: 3, Seed: 9}
	r1, err := RunReplay(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunReplay(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary() != r2.Summary() {
		t.Error("summary not deterministic")
	}
	if !strings.Contains(r1.Summary(), "replay fidelity: 3 scenarios") {
		t.Errorf("summary header malformed:\n%s", r1.Summary())
	}
}
