package orchestrator

import (
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
)

func twoTenantPolicy(t *testing.T) *core.JointPolicy {
	t.Helper()
	tenants := []*core.Tenant{
		{ID: 1, Name: "hi", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 32},
		{ID: 2, Name: "lo", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 32},
	}
	jp, err := core.Synthesize(tenants, policy.MustParse("hi >> lo"), core.SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

func TestFabricPlanHomogeneousPIFO(t *testing.T) {
	jp := twoTenantPolicy(t)
	devices := []Device{
		{Name: "leaf0", Role: "leaf", Target: core.TargetPIFO},
		{Name: "leaf1", Role: "leaf", Target: core.TargetPIFO},
		{Name: "spine0", Role: "spine", Target: core.TargetPIFO},
	}
	fp, err := Plan(jp, devices)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Feasible {
		t.Fatal("all-PIFO fabric must be feasible")
	}
	for kind, lvl := range fp.Guarantees {
		if lvl != core.GuaranteeExact {
			t.Errorf("%v: level %v, want exact", kind, lvl)
		}
	}
}

func TestFabricWeakestLink(t *testing.T) {
	jp := twoTenantPolicy(t)
	devices := []Device{
		{Name: "leaf0", Role: "leaf", Target: core.TargetPIFO},
		{Name: "spine0", Role: "spine", Target: core.TargetCommodity8Q},
	}
	fp, err := Plan(jp, devices)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Feasible {
		t.Fatal("both devices individually feasible")
	}
	// Intra-tenant order degrades to the commodity device's level.
	if got := fp.Guarantees[core.ReqIntraOrder]; got != core.GuaranteeApprox {
		t.Fatalf("fabric intra-order = %v, want approximate (weakest link)", got)
	}
	if fp.Bottleneck[core.ReqIntraOrder] != "spine0" {
		t.Fatalf("bottleneck = %q, want spine0", fp.Bottleneck[core.ReqIntraOrder])
	}
	// Isolation remains exact everywhere (dedicated queues suffice).
	if got := fp.Guarantees[core.ReqIsolation]; got != core.GuaranteeExact {
		t.Fatalf("fabric isolation = %v, want exact", got)
	}
}

func TestFabricInfeasibleDevice(t *testing.T) {
	jp := twoTenantPolicy(t)
	devices := []Device{
		{Name: "old0", Role: "leaf", Target: core.Target{Name: "legacy-1q", Queues: 1}},
	}
	fp, err := Plan(jp, devices)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Feasible {
		t.Fatal("1 queue for 2 tiers must make the fabric infeasible")
	}
	if fp.Devices[0].Plan.Partial == nil {
		t.Fatal("infeasible device should carry a partial-spec proposal")
	}
}

func TestPlanValidation(t *testing.T) {
	jp := twoTenantPolicy(t)
	if _, err := Plan(jp, nil); err == nil {
		t.Fatal("no devices accepted")
	}
	if _, err := Plan(jp, []Device{{Name: "", Target: core.TargetPIFO}}); err == nil {
		t.Fatal("empty device name accepted")
	}
	dup := []Device{
		{Name: "a", Target: core.TargetPIFO},
		{Name: "a", Target: core.TargetPIFO},
	}
	if _, err := Plan(jp, dup); err == nil {
		t.Fatal("duplicate device accepted")
	}
	bad := []Device{{Name: "x", Target: core.Target{Name: "none"}}}
	if _, err := Plan(jp, bad); err == nil {
		t.Fatal("resourceless target accepted")
	}
}

func TestDevicePlanDeploy(t *testing.T) {
	jp := twoTenantPolicy(t)
	fp, err := Plan(jp, []Device{
		{Name: "leaf0", Role: "leaf", Target: core.TargetCommodity8Q},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := fp.Devices[0].Deploy(jp, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := &pkt.Packet{Rank: 3, Size: 100}
	if !s.Enqueue(p) || s.Dequeue() == nil {
		t.Fatal("deployed scheduler does not pass packets")
	}
}

func TestDescribe(t *testing.T) {
	jp := twoTenantPolicy(t)
	fp, err := Plan(jp, []Device{
		{Name: "leaf0", Role: "leaf", Target: core.TargetPIFO},
		{Name: "spine0", Role: "spine", Target: core.TargetCommodity8Q},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := fp.Describe()
	for _, want := range []string{"leaf0", "spine0", "bottleneck", "intra-tenant order"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestPlanWithProfiles(t *testing.T) {
	jp := twoTenantPolicy(t)
	// Measured-fidelity profiles: admission beats the queue-bank family,
	// PIFO beats everything.
	profiles := []core.FidelityProfile{
		{Backend: core.BackendPIFO, ExactReplayRate: 1},
		{Backend: core.BackendSPQueues, InversionsPerPacket: 5.2, DisplacementPerPacket: 8.5, DropDivergenceRate: 0.18},
		{Backend: core.BackendSPPIFO, InversionsPerPacket: 8.8, DisplacementPerPacket: 13.9, DropDivergenceRate: 0.47},
		{Backend: core.BackendAdmission, InversionsPerPacket: 4.1, DisplacementPerPacket: 6.0, DropDivergenceRate: 0.17},
	}
	devices := []Device{
		{Name: "leaf0", Role: "leaf", Target: core.TargetPIFO},
		{Name: "spine0", Role: "spine", Target: core.TargetCommodity8Q},
		{Name: "edge0", Role: "edge", Target: core.Target{Name: "adm-8q", Queues: 8, Admission: true}},
	}
	fp, err := PlanWithProfiles(jp, devices, profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]core.Backend{
		"leaf0":  core.BackendPIFO,      // sorted queue realizes the ideal
		"spine0": core.BackendSPQueues,  // best profile an 8Q bank supports
		"edge0":  core.BackendAdmission, // admission stage unlocks the best profile
	}
	for _, dp := range fp.Devices {
		if dp.Backend != want[dp.Device.Name] {
			t.Errorf("%s: backend %v, want %v", dp.Device.Name, dp.Backend, want[dp.Device.Name])
		}
	}
	// With no feasible profile for a device, the capability heuristic
	// stands.
	fp, err = PlanWithProfiles(jp, devices, []core.FidelityProfile{
		{Backend: core.BackendCalendar, InversionsPerPacket: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dp := range fp.Devices {
		if dp.Device.Name == "leaf0" && dp.Backend != core.BackendPIFO {
			t.Errorf("leaf0 fell back to %v, want the pifo heuristic", dp.Backend)
		}
	}
	if _, err := PlanWithProfiles(jp, nil, profiles); err == nil {
		t.Fatal("device validation bypassed")
	}
}
