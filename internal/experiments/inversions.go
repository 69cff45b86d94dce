package experiments

import (
	"fmt"
	"math/rand"

	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
)

// InversionResult reports how faithfully one scheduler realizes the joint
// policy's rank order — the metric the SP-PIFO paper popularized: a
// dequeue is an inversion ("unpifoness") when a packet with a lower rank
// is still queued.
type InversionResult struct {
	// Scheduler names the discipline.
	Scheduler string
	// Dequeues counts serviced packets.
	Dequeues int
	// Inversions counts order-violating dequeues.
	Inversions int
	// Rate is Inversions / Dequeues.
	Rate float64
	// Drops counts packets rejected (admission/capacity).
	Drops int
}

// InversionStudy replays an identical QVISOR-transformed arrival trace
// (two tenants sharing under the joint policy, randomized enqueue/dequeue
// interleaving) through each scheduler and measures its inversion rate
// against a rank oracle. The ideal PIFO scores zero by construction;
// approximations trade inversions for hardware simplicity (§3.4). Each
// scheduler replays through the conformance sweeps' loop, so its backlog
// is capped at the sweeps' 64 packets.
//
// The trace is drawn from a private deterministic source derived from seed,
// so concurrent studies never share RNG state and one seed always yields
// the same results.
func InversionStudy(count int, seed int64) ([]InversionResult, error) {
	if count <= 0 {
		return nil, fmt.Errorf("experiments: non-positive packet count")
	}
	rng := rand.New(rand.NewSource(seed))
	// Joint policy: two sharing tenants with heterogeneous rank scales.
	tenants := []*core.Tenant{
		{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 20}, Levels: 1 << 10},
		{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 10000}, Levels: 1 << 10},
	}
	jp, err := core.Synthesize(tenants, policy.MustParse("a + b"), core.SynthOptions{})
	if err != nil {
		return nil, err
	}
	pp := core.NewPreprocessor(jp, core.UnknownWorst)

	// Pre-generate the transformed trace and the randomized service
	// pattern so every scheduler sees identical input.
	sc := &conform.Scenario{Trace: make([]pkt.Packet, count), Serve: make([]bool, count)}
	for i := range sc.Trace {
		p := &sc.Trace[i]
		*p = pkt.Packet{ID: uint64(i), Tenant: pkt.TenantID(1 + rng.Intn(2)), Size: 1500}
		if p.Tenant == 1 {
			p.Rank = int64(rng.Intn(1 << 20))
		} else {
			p.Rank = int64(rng.Intn(10001))
		}
		pp.Process(p)
	}
	for i := range sc.Serve {
		sc.Serve[i] = rng.Intn(2) == 0
	}

	span := jp.Output.Span()
	rows := []struct {
		name, spec string
		capacity   int
	}{
		{"pifo", "pifo", 1 << 30},
		{"sppifo:8", "sppifo:8", 1 << 30},
		{"sppifo:32", "sppifo:32", 1 << 30},
		{"calendar:32", fmt.Sprintf("calendar:32:%d", sched.BucketWidth(span, 32)), 1 << 30},
		{"bucketq:128", fmt.Sprintf("bucketq:128,%d", span), 1 << 30},
		{"aifo", "aifo", 256 * 1500},
		{"admission:8", "admission:8", 256 * 1500},
		{"fifo", "fifo", 1 << 30},
	}
	out := make([]InversionResult, len(rows))
	for i, row := range rows {
		res := &out[i]
		res.Scheduler = row.name
		res.Dequeues, res.Inversions, res.Drops, err = conform.ReplayInversions(sc, row.spec, row.capacity)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", row.name, err)
		}
		if res.Dequeues > 0 {
			res.Rate = float64(res.Inversions) / float64(res.Dequeues)
		}
	}
	return out, nil
}
