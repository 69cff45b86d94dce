package experiments

import (
	"fmt"
	"math/rand"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/trace"
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
// approximations trade inversions for hardware simplicity (§3.4).
//
// The trace is drawn from a private deterministic source derived from seed,
// so concurrent studies never share RNG state; use InversionStudyRng to
// inject the source explicitly.
func InversionStudy(packets int, seed int64) ([]InversionResult, error) {
	return InversionStudyRng(packets, rand.New(rand.NewSource(seed)))
}

// InversionStudyRng is InversionStudy with an explicit random source. The
// caller owns rng; passing sources seeded identically yields byte-identical
// results.
func InversionStudyRng(count int, rng *rand.Rand) ([]InversionResult, error) {
	if count <= 0 {
		return nil, fmt.Errorf("experiments: non-positive packet count")
	}
	if rng == nil {
		return nil, fmt.Errorf("experiments: nil rng")
	}
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

	// Pre-generate the transformed trace so every scheduler sees
	// identical input.
	packets := make([]*pkt.Packet, count)
	for i := range packets {
		p := &pkt.Packet{
			ID:     uint64(i),
			Tenant: pkt.TenantID(1 + rng.Intn(2)),
			Size:   1500,
		}
		if p.Tenant == 1 {
			p.Rank = int64(rng.Intn(1 << 20))
		} else {
			p.Rank = int64(rng.Intn(10001))
		}
		pp.Process(p)
		packets[i] = p
	}
	// Identical randomized service pattern; occupancy is additionally
	// bounded to ~64 packets so the rates reflect realistic queue depths
	// rather than unbounded backlogs.
	serve := make([]bool, count)
	for i := range serve {
		serve[i] = rng.Intn(2) == 0
	}
	const maxOccupancy = 64

	builders := []struct {
		name  string
		build func(drop sched.DropFn) sched.Scheduler
	}{
		{"pifo", func(d sched.DropFn) sched.Scheduler {
			return sched.NewPIFO(sched.Config{CapacityBytes: 1 << 30, OnDrop: d})
		}},
		{"sppifo:8", func(d sched.DropFn) sched.Scheduler {
			return sched.NewSPPIFO(sched.Config{CapacityBytes: 1 << 30, OnDrop: d}, 8)
		}},
		{"sppifo:32", func(d sched.DropFn) sched.Scheduler {
			return sched.NewSPPIFO(sched.Config{CapacityBytes: 1 << 30, OnDrop: d}, 32)
		}},
		{"calendar:32", func(d sched.DropFn) sched.Scheduler {
			width := sched.BucketWidth(jp.Output.Span(), 32)
			return sched.NewCalendar(sched.Config{CapacityBytes: 1 << 30, OnDrop: d}, 32, width)
		}},
		{"bucketq:128", func(d sched.DropFn) sched.Scheduler {
			width := sched.BucketWidth(jp.Output.Span(), 128)
			return sched.NewBucketQ(sched.Config{CapacityBytes: 1 << 30, OnDrop: d}, 128, width)
		}},
		{"aifo", func(d sched.DropFn) sched.Scheduler {
			return sched.NewAIFO(sched.AIFOConfig{Config: sched.Config{CapacityBytes: 256 * 1500, OnDrop: d}})
		}},
		{"admission:8", func(d sched.DropFn) sched.Scheduler {
			return sched.NewAdmission(sched.AdmissionConfig{
				Config: sched.Config{CapacityBytes: 256 * 1500, OnDrop: d},
			})
		}},
		{"fifo", func(d sched.DropFn) sched.Scheduler {
			return sched.NewFIFO(sched.Config{CapacityBytes: 1 << 30, OnDrop: d})
		}},
	}

	// Per-run packet copies come from a pool that is drained back between
	// schedulers: the drop callback releases refused packets, the dequeue
	// loop releases serviced ones.
	pool := pkt.NewPool()
	release := func(p *pkt.Packet, _ sched.DropCause) { pool.Put(p) }

	var out []InversionResult
	for _, b := range builders {
		s := b.build(release)
		res := InversionResult{Scheduler: b.name}
		counter := trace.NewInversionCounter()
		for i, p := range packets {
			cp := pool.Get()
			*cp = *p // schedulers may be destructive; copy per run
			if s.Enqueue(cp) {
				counter.OnEnqueue(cp.Rank)
			} else {
				res.Drops++
			}
			for serveOne := serve[i] || s.Len() > maxOccupancy; serveOne; serveOne = s.Len() > maxOccupancy {
				got := s.Dequeue()
				if got == nil {
					break
				}
				counter.OnDequeue(got.Rank)
				pool.Put(got)
			}
		}
		for got := s.Dequeue(); got != nil; got = s.Dequeue() {
			counter.OnDequeue(got.Rank)
			pool.Put(got)
		}
		res.Dequeues = counter.Dequeues
		res.Inversions = counter.Inversions
		if n := pool.Outstanding(); n != 0 {
			return nil, fmt.Errorf("experiments: %s leaked %d packets", b.name, n)
		}
		pool.Reset()
		if res.Dequeues > 0 {
			res.Rate = float64(res.Inversions) / float64(res.Dequeues)
		}
		out = append(out, res)
	}
	return out, nil
}
