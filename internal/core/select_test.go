package core

import (
	"reflect"
	"slices"
	"testing"
)

// profile builds a FidelityProfile with the given deviation figures.
func profile(b Backend, exact, inv, disp, drop float64) FidelityProfile {
	return FidelityProfile{
		Backend:               b,
		ExactReplayRate:       exact,
		InversionsPerPacket:   inv,
		DisplacementPerPacket: disp,
		DropDivergenceRate:    drop,
	}
}

func TestFidelityScore(t *testing.T) {
	// A perfect replay scores exactly 1.0; each deviation subtracts with
	// its documented weight.
	if got := profile(BackendPIFO, 1, 0, 0, 0).Score(); got != 1.0 {
		t.Fatalf("perfect profile scores %v, want 1.0", got)
	}
	p := profile(BackendSPPIFO, 0.5, 2, 4, 0.25)
	want := 0.5 - 2 - 0.5*4 - 2*0.25
	if got := p.Score(); got != want {
		t.Fatalf("Score() = %v, want %v", got, want)
	}
}

func TestSupportedBackends(t *testing.T) {
	cases := []struct {
		name   string
		target Target
		want   []Backend
	}{
		{"fifo-only", Target{Queues: 1},
			[]Backend{BackendFIFO}},
		{"sorted", Target{Sorted: true},
			[]Backend{BackendPIFO, BackendFIFO}},
		{"queue-bank", Target{Queues: 8},
			[]Backend{BackendSPQueues, BackendSPPIFO, BackendFIFO, BackendCalendar, BackendBucketQ}},
		{"admission-1q", Target{Queues: 1, Admission: true},
			[]Backend{BackendFIFO, BackendAIFO}},
		{"admission-bank", Target{Queues: 8, Admission: true},
			[]Backend{BackendSPQueues, BackendSPPIFO, BackendFIFO, BackendCalendar, BackendAIFO, BackendAdmission, BackendBucketQ}},
	}
	for _, c := range cases {
		got := c.target.SupportedBackends()
		want := append([]Backend(nil), c.want...)
		sortBackends(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: SupportedBackends() = %v, want %v", c.name, got, want)
		}
	}
}

// TestDefaultBackendIsSupported walks a grid of device targets: every one
// CompileTo accepts defaults to a backend it supports and that deploys.
// The named targets pin the decision itself.
func TestDefaultBackendIsSupported(t *testing.T) {
	jp := twoTierPolicy(t)
	for _, sorted := range []bool{false, true} {
		for _, admission := range []bool{false, true} {
			for _, queues := range []int{0, 1, 2, 8, 63, 64, 4096} {
				target := Target{Sorted: sorted, Admission: admission, Queues: queues, RankRewrite: true}
				if _, err := jp.CompileTo(target); err != nil {
					continue
				}
				b := target.DefaultBackend()
				if !slices.Contains(target.SupportedBackends(), b) {
					t.Errorf("%+v: DefaultBackend %v not in SupportedBackends %v", target, b, target.SupportedBackends())
				}
				if _, err := jp.Deploy(b, DeployOptions{Queues: queues}); err != nil {
					t.Errorf("%+v: DefaultBackend %v does not deploy: %v", target, b, err)
				}
			}
		}
	}
	cases := []struct {
		target Target
		want   Backend
	}{
		{TargetPIFO, BackendPIFO},
		{TargetCommodity8Q, BackendSPQueues},
		{Target{Name: "aifo", Queues: 1, Admission: true}, BackendAIFO},
		{Target{Name: "admission-bank", Queues: 8, Admission: true}, BackendAdmission},
		{Target{Name: "software", Queues: 64}, BackendBucketQ},
		{Target{Name: "dumb", Queues: 1}, BackendFIFO},
	}
	for _, c := range cases {
		if got := c.target.DefaultBackend(); got != c.want {
			t.Errorf("%s: DefaultBackend() = %v, want %v", c.target.Name, got, c.want)
		}
	}
}

func TestSelectBackend(t *testing.T) {
	profiles := []FidelityProfile{
		profile(BackendFIFO, 0, 8.9, 15.3, 0.47),
		profile(BackendSPPIFO, 0, 8.8, 13.9, 0.47),
		profile(BackendAdmission, 0, 8.8, 13.0, 0.18),
		profile(BackendPIFO, 1, 0, 0, 0),
	}
	// Unrestricted, the exact PIFO wins.
	best, ok := SelectBackend(profiles, nil)
	if !ok || best.Backend != BackendPIFO {
		t.Fatalf("best = %v, want pifo", best.Backend)
	}
	// Without a sorted queue the admission backend's drop profile wins.
	noPIFO := func(b Backend) bool { return b != BackendPIFO }
	best, ok = SelectBackend(profiles, noPIFO)
	if !ok || best.Backend != BackendAdmission {
		t.Fatalf("best = %v, want admission", best.Backend)
	}
	// Nothing feasible.
	if _, ok := SelectBackend(profiles, func(Backend) bool { return false }); ok {
		t.Fatal("selection from an empty feasible set succeeded")
	}
	// Equal scores break toward the lower enum value, both directions.
	tied := []FidelityProfile{
		profile(BackendCalendar, 0.5, 0, 0, 0),
		profile(BackendSPQueues, 0.5, 0, 0, 0),
	}
	best, _ = SelectBackend(tied, nil)
	if best.Backend != BackendSPQueues {
		t.Fatalf("tie broke to %v, want the lower enum sp-queues", best.Backend)
	}
	tied[0], tied[1] = tied[1], tied[0]
	best, _ = SelectBackend(tied, nil)
	if best.Backend != BackendSPQueues {
		t.Fatalf("tie (reordered) broke to %v, want sp-queues", best.Backend)
	}
}

func TestDeployBest(t *testing.T) {
	jp := twoTierPolicy(t)
	profiles := []FidelityProfile{
		profile(BackendPIFO, 1, 0, 0, 0),
		profile(BackendSPQueues, 0, 5.2, 8.5, 0.18),
		profile(BackendAdmission, 0, 8.8, 13.0, 0.18),
	}
	dep, err := jp.DeployBest(profiles, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Backend != BackendPIFO {
		t.Fatalf("deployed %v, want pifo", dep.Backend)
	}
	// Without the PIFO profile, SP queues win — unless the queue budget
	// cannot isolate every strict tier, which removes them from the
	// feasible set and falls through to admission.
	rest := profiles[1:]
	dep, err = jp.DeployBest(rest, DeployOptions{Queues: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Backend != BackendSPQueues {
		t.Fatalf("deployed %v, want sp-queues", dep.Backend)
	}
	dep, err = jp.DeployBest([]FidelityProfile{
		profile(BackendSPQueues, 0, 5.2, 8.5, 0.18),
		profile(BackendAdmission, 0, 8.8, 13.0, 0.18),
	}, DeployOptions{Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Backend != BackendAdmission {
		t.Fatalf("deployed %v, want admission (sp-queues infeasible at 1 queue)", dep.Backend)
	}
	if _, err := jp.DeployBest(nil, DeployOptions{}); err == nil {
		t.Fatal("DeployBest accepted an empty profile set")
	}
}

func TestBackendsAndParse(t *testing.T) {
	all := Backends()
	if len(all) != int(numBackends) {
		t.Fatalf("Backends() = %d entries, want %d", len(all), int(numBackends))
	}
	for _, b := range all {
		name := b.String()
		got, err := ParseBackend(name)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", name, err)
		}
		if got != b {
			t.Fatalf("ParseBackend(%q) = %v, want %v", name, got, b)
		}
	}
	for alias, want := range map[string]Backend{"sppifo": BackendSPPIFO, " SpQueues ": BackendSPQueues} {
		if got, err := ParseBackend(alias); err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	for _, name := range []string{"nope", ""} {
		if _, err := ParseBackend(name); err == nil {
			t.Errorf("ParseBackend(%q) accepted", name)
		}
	}
}

// sortBackends orders a backend list by enum value, matching
// SupportedBackends' deterministic order.
func sortBackends(bs []Backend) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j] < bs[j-1]; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}
