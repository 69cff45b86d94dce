package core

import (
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
)

func twoTierPolicy(t *testing.T) *JointPolicy {
	t.Helper()
	tenants := []*Tenant{
		tenant(1, "hi", 0, 100),
		tenant(2, "lo", 0, 100),
	}
	return mustSynth(t, tenants, "hi >> lo", SynthOptions{DefaultLevels: 16})
}

func TestDeployAllBackends(t *testing.T) {
	jp := twoTierPolicy(t)
	for _, b := range []Backend{
		BackendPIFO, BackendSPQueues, BackendSPPIFO, BackendAIFO, BackendCalendar, BackendFIFO,
	} {
		d, err := jp.Deploy(b, DeployOptions{})
		if err != nil {
			t.Fatalf("Deploy(%v): %v", b, err)
		}
		if d.Scheduler == nil {
			t.Fatalf("Deploy(%v): nil scheduler", b)
		}
		// Smoke: a packet flows through.
		p := &pkt.Packet{Rank: 5, Size: 100}
		d.Scheduler.Enqueue(p)
		if got := d.Scheduler.Dequeue(); got == nil {
			t.Fatalf("Deploy(%v): packet lost", b)
		}
	}
}

func TestDeployUnknownBackend(t *testing.T) {
	if _, err := twoTierPolicy(t).Deploy(Backend(99), DeployOptions{}); err == nil {
		t.Fatal("unknown backend should error")
	}
}

// TestDeployFailsClosed: the queue count reaches Deploy from flags and API
// requests (cmd/qvisor -queues N) and sizes the bank, so every backend
// that builds one rejects a count above sched.MaxQueues instead of
// allocating it; at the bound it deploys. Backends that ignore the count
// are unaffected.
func TestDeployFailsClosed(t *testing.T) {
	jp := twoTierPolicy(t)
	for _, b := range Backends() {
		if _, err := jp.Deploy(b, DeployOptions{Queues: sched.MaxQueues}); err != nil {
			t.Errorf("Deploy(%v, %d queues): %v", b, sched.MaxQueues, err)
		}
		for _, n := range []int{sched.MaxQueues + 1, 2000000000} {
			d, err := jp.Deploy(b, DeployOptions{Queues: n})
			banked := b == BackendSPQueues || b == BackendSPPIFO || b == BackendCalendar || b == BackendAdmission
			switch {
			case banked && err == nil:
				t.Errorf("Deploy(%v, %d queues) built %s, want an error", b, n, d.Scheduler.Name())
			case banked && !strings.Contains(err.Error(), "4096"):
				t.Errorf("Deploy(%v, %d queues): error %q does not state the bound", b, n, err)
			case !banked && err != nil:
				t.Errorf("Deploy(%v, %d queues): %v (the backend ignores the count)", b, n, err)
			}
		}
	}
	if _, err := jp.DeploySPActive(DeployOptions{Queues: 2000000000}, []string{"hi"}); err == nil {
		t.Error("DeploySPActive with 2000000000 queues should error")
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendPIFO: "pifo", BackendSPQueues: "sp-queues", BackendSPPIFO: "sp-pifo",
		BackendAIFO: "aifo", BackendCalendar: "calendar", BackendFIFO: "fifo",
		Backend(42): "backend(42)",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestSPQueuesTierIsolation(t *testing.T) {
	// §3.4: strict tiers get dedicated queues. Every queue serves exactly
	// one tier, and higher tiers get lower-index (higher-priority) queues.
	jp := twoTierPolicy(t)
	d, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ranges) != 5 {
		t.Fatalf("ranges = %d, want 5", len(d.Ranges))
	}
	seenTier1 := false
	for _, r := range d.Ranges {
		if r.Tier == 1 {
			seenTier1 = true
		}
		if seenTier1 && r.Tier == 0 {
			t.Fatal("tier 0 queue after tier 1 queue")
		}
	}
	if !seenTier1 {
		t.Fatal("tier 1 got no queues")
	}
	// Ranges must cover each tier's band contiguously.
	for _, tp := range jp.Tiers {
		lo := tp.Bounds.Lo
		for _, r := range d.Ranges {
			if r.Lo == lo && r.Tier >= 0 {
				lo = r.Hi + 1
			}
		}
		if lo <= tp.Bounds.Hi {
			t.Fatalf("tier band %v not fully covered (reached %d)", tp.Bounds, lo)
		}
	}
}

func TestSPQueuesMapperRoutesByRank(t *testing.T) {
	jp := twoTierPolicy(t)
	pp := NewPreprocessor(jp, UnknownWorst)
	d, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	mq := d.Scheduler.(*sched.MQ)
	// A hi-tier packet must land in a queue serving tier 0.
	p := &pkt.Packet{Tenant: 1, Rank: 0, Size: 10}
	pp.Process(p)
	mq.Enqueue(p)
	// A lo-tier packet lands strictly later in the queue order.
	p2 := &pkt.Packet{Tenant: 2, Rank: 0, Size: 10}
	pp.Process(p2)
	mq.Enqueue(p2)
	first := mq.Dequeue()
	if first.Tenant != 1 {
		t.Fatalf("hi-tier packet should dequeue first, got tenant %d", first.Tenant)
	}
}

func TestSPQueuesStrictIsolationUnderLoad(t *testing.T) {
	// Even with many lo-tier packets queued first, hi-tier packets always
	// dequeue first — the worst-case guarantee of >>.
	jp := twoTierPolicy(t)
	pp := NewPreprocessor(jp, UnknownWorst)
	d, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Scheduler
	for i := 0; i < 50; i++ {
		p := &pkt.Packet{Tenant: 2, Rank: int64(i % 100), Size: 10}
		pp.Process(p)
		s.Enqueue(p)
	}
	for i := 0; i < 50; i++ {
		p := &pkt.Packet{Tenant: 1, Rank: int64(i % 100), Size: 10}
		pp.Process(p)
		s.Enqueue(p)
	}
	for i := 0; i < 50; i++ {
		p := s.Dequeue()
		if p.Tenant != 1 {
			t.Fatalf("dequeue %d: tenant %d before all hi-tier traffic drained", i, p.Tenant)
		}
	}
}

func TestSPQueuesTooFewQueues(t *testing.T) {
	jp := twoTierPolicy(t)
	if _, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 1}); err == nil {
		t.Fatal("1 queue cannot isolate 2 tiers; want error")
	}
}

func TestSPQueuesProportionalAllocation(t *testing.T) {
	// A tier with a much wider band gets more queues.
	tenants := []*Tenant{
		{ID: 1, Name: "wide", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 60},
		{ID: 2, Name: "narrow", Bounds: rank.Bounds{Lo: 0, Hi: 1000}, Levels: 4},
	}
	jp := mustSynth(t, tenants, "wide >> narrow", SynthOptions{})
	d, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 8})
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, r := range d.Ranges {
		count[r.Tier]++
	}
	if count[0] <= count[1] {
		t.Fatalf("wide tier got %d queues, narrow %d; want wide > narrow", count[0], count[1])
	}
}

func TestDeployDescribe(t *testing.T) {
	jp := twoTierPolicy(t)
	d, err := jp.Deploy(BackendSPQueues, DeployOptions{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	desc := d.Describe()
	if !strings.Contains(desc, "sp-queues") || !strings.Contains(desc, "queue 0") {
		t.Fatalf("Describe() = %q", desc)
	}
}

func TestCalendarBackendWidth(t *testing.T) {
	jp := twoTierPolicy(t)
	d, err := jp.Deploy(BackendCalendar, DeployOptions{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Packets across the whole output range must be accepted.
	for r := jp.Output.Lo; r <= jp.Output.Hi; r += 3 {
		if !d.Scheduler.Enqueue(&pkt.Packet{Rank: r, Size: 1}) {
			t.Fatalf("calendar rejected in-range rank %d", r)
		}
	}
}

func TestDeploySPActiveReallocation(t *testing.T) {
	jp := twoTierPolicy(t)
	// Both active: tier 1 gets some queues.
	both, err := jp.DeploySPActive(DeployOptions{Queues: 8}, []string{"hi", "lo"})
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[int]int{}
	for _, r := range both.Ranges {
		tiers[r.Tier]++
	}
	if tiers[0] == 0 || tiers[1] == 0 {
		t.Fatalf("both-active allocation: %v", tiers)
	}
	// Only "lo" active: all 8 queues go to its tier.
	only, err := jp.DeploySPActive(DeployOptions{Queues: 8}, []string{"lo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Ranges) != 8 {
		t.Fatalf("ranges = %d, want 8", len(only.Ranges))
	}
	for _, r := range only.Ranges {
		if r.Tier != 1 {
			t.Fatalf("idle tier still holds queue %d: %+v", r.Queue, r)
		}
	}
	// Finer division: the active tier's band is split across 8 queues,
	// versus fewer in the shared allocation.
	if len(only.Ranges) <= tiers[1] {
		t.Fatalf("reallocation did not add queues: %d vs %d", len(only.Ranges), tiers[1])
	}
	// No active tenants named: fall back to the full allocation.
	fallback, err := jp.DeploySPActive(DeployOptions{Queues: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiersFB := map[int]int{}
	for _, r := range fallback.Ranges {
		tiersFB[r.Tier]++
	}
	if tiersFB[0] == 0 || tiersFB[1] == 0 {
		t.Fatalf("fallback allocation: %v", tiersFB)
	}
}

func TestDeploySPActivePacketsStillFlow(t *testing.T) {
	// With only the low tier active, a stray high-tier packet coarsely
	// maps into the active allocation instead of being lost.
	jp := twoTierPolicy(t)
	pp := NewPreprocessor(jp, UnknownWorst)
	dep, err := jp.DeploySPActive(DeployOptions{Queues: 4}, []string{"lo"})
	if err != nil {
		t.Fatal(err)
	}
	p := &pkt.Packet{Tenant: 1, Rank: 0, Size: 10} // "hi" tenant
	pp.Process(p)
	if !dep.Scheduler.Enqueue(p) {
		t.Fatal("stray high-tier packet dropped")
	}
	if dep.Scheduler.Dequeue() == nil {
		t.Fatal("packet lost")
	}
}

// TestPIFOBufferPressureFavorsHighTier: under >>, when the shared PIFO
// buffer overflows, evictions fall on the lower tier first — the transformed
// ranks make the drop-worst policy tier-aware automatically.
func TestPIFOBufferPressureFavorsHighTier(t *testing.T) {
	jp := twoTierPolicy(t)
	pp := NewPreprocessor(jp, UnknownWorst)
	var evictedLo, evictedHi int
	pifo := sched.NewPIFO(sched.Config{
		CapacityBytes: 1000, // ten 100-byte packets
		OnDrop: func(p *pkt.Packet, _ sched.DropCause) {
			if p.Tenant == 2 {
				evictedLo++
			} else {
				evictedHi++
			}
		},
	})
	// Fill with low-tier packets, then offer high-tier traffic.
	for i := 0; i < 10; i++ {
		p := &pkt.Packet{Tenant: 2, Rank: int64(i * 10), Size: 100}
		pp.Process(p)
		pifo.Enqueue(p)
	}
	for i := 0; i < 10; i++ {
		p := &pkt.Packet{Tenant: 1, Rank: int64(i * 10), Size: 100}
		pp.Process(p)
		if !pifo.Enqueue(p) {
			t.Fatalf("high-tier packet %d rejected", i)
		}
	}
	if evictedLo != 10 || evictedHi != 0 {
		t.Fatalf("evictions lo=%d hi=%d, want 10/0", evictedLo, evictedHi)
	}
	// The buffer now holds only high-tier traffic.
	for p := pifo.Dequeue(); p != nil; p = pifo.Dequeue() {
		if p.Tenant != 1 {
			t.Fatalf("low-tier packet survived: %v", p)
		}
	}
}
