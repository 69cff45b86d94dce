package main

import (
	"math/rand"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// Micro-replays: each times one layer's public call in isolation, at the
// operating point a counting run observed (queue depth, backlog), so that
// count x cost can be set against the end-to-end wall time. Every replay
// runs its loop microReps times and reports the fastest, which is the
// repeatable part of the cost on a shared machine.
const microReps = 3

func fastest(reps int, f func() float64) float64 {
	best := f()
	for i := 1; i < reps; i++ {
		if v := f(); v < best {
			best = v
		}
	}
	return best
}

// engineOpNs is the cost of scheduling and firing one no-op event with depth
// events pending: depth self-rescheduling events with seeded random delays,
// run until n have fired. Every replayed event is imminent and travels the
// heap's full height; in a real run most of the pending events are far-off
// retransmission timers that are pushed to the bottom and stay there, so
// this is an upper estimate of the engine's cost per event (README.md gives
// the CPU profile's figure next to it).
func engineOpNs(depth, n int, seed int64) float64 {
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Time, 1024)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(2000))
	}
	return fastest(microReps, func() float64 {
		eng := sim.New()
		left, k := n, 0
		var ev sim.Event
		ev = func(sim.Time) {
			if left--; left > 0 {
				k++
				eng.After(delays[k&1023], ev)
			}
		}
		for i := 0; i < depth; i++ {
			eng.After(delays[i&1023], ev)
		}
		t0 := time.Now()
		eng.Run(sim.Time(1) << 60)
		return float64(time.Since(t0)) / float64(eng.Fired())
	})
}

// schedOpNs is the cost of one Enqueue and of one Dequeue at a standing
// backlog: windows of enqueues then as many dequeues over n packets, with
// uniformly random ranks below rankSpan. The window is half the backlog
// (within 16..256), so the queue stays near the depth the run observed
// while the two clock reads per window stay negligible.
func schedOpNs(mk func() sched.Scheduler, backlog, n int, rankSpan int64, seed int64) (enq, deq float64) {
	win := backlog / 2
	if win < 16 {
		win = 16
	}
	if win > 256 {
		win = 256
	}
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]int64, 4096)
	for i := range ranks {
		ranks[i] = rng.Int63n(rankSpan)
	}
	pkts := make([]*pkt.Packet, backlog+win)
	for i := range pkts {
		pkts[i] = &pkt.Packet{Size: 64}
	}
	enq, deq = -1, -1
	for rep := 0; rep < microReps; rep++ {
		q := mk()
		free := append([]*pkt.Packet(nil), pkts...)
		k := 0
		push := func() {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			p.Rank = ranks[k&4095]
			k++
			q.Enqueue(p)
		}
		for i := 0; i < backlog; i++ {
			push()
		}
		var te, td time.Duration
		for done := 0; done < n; done += win {
			t0 := time.Now()
			for j := 0; j < win; j++ {
				push()
			}
			t1 := time.Now()
			for j := 0; j < win; j++ {
				free = append(free, q.Dequeue())
			}
			te += t1.Sub(t0)
			td += time.Since(t1)
		}
		e, d := float64(te)/float64(n), float64(td)/float64(n)
		if enq < 0 || e+d < enq+deq {
			enq, deq = e, d
		}
	}
	return enq, deq
}

// preprocNs is the cost of one Preprocessor.Process over the policy's
// tenants in round-robin with in-bounds ranks.
func preprocNs(pp *core.Preprocessor, ids []pkt.TenantID, rankSpan int64, n int) float64 {
	p := &pkt.Packet{}
	return fastest(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Tenant = ids[i%len(ids)]
			p.Rank = int64(i) % rankSpan
			pp.Process(p)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// rankNs is the mean cost of one Rank call over the scenario's two rankers.
func rankNs(pf, edf rank.Ranker, n int) float64 {
	fl := &rank.Flow{ID: 1, Size: 1 << 20, Deadline: 5 * sim.Millisecond}
	var sink int64
	v := fastest(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i += 2 {
			fl.Sent = int64(i & 0xfffff)
			sink += pf.Rank(sim.Time(i), fl, 1460)
			sink += edf.Rank(sim.Time(i), fl, 1460)
		}
		return float64(time.Since(t0)) / float64(n)
	})
	_ = sink
	return v
}

// poolNs is the cost of one Get, the field stores a sender makes, and Put.
func poolNs(n int) float64 {
	pl := pkt.NewPool()
	return fastest(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p := pl.Get()
			p.ID, p.Flow, p.Size, p.Rank = uint64(i), uint64(i>>4), 1524, int64(i)
			pl.Put(p)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// traceRecordNs is the cost of one sampled Recorder.Record into the ring.
func traceRecordNs(n int) float64 {
	rec := trace.NewFlightRecorder(trace.Options{})
	p := &pkt.Packet{ID: 1, Flow: 8, Tenant: 1, Size: 1524}
	return fastest(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			rec.Record(sim.Time(i), trace.KindEnqueue, "leaf0→spine1", p)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// sloHookNs is the cost of one sampled PortWatch.OnEnqueue + OnDequeue pair
// at a shadow depth of 16.
func sloHookNs(n int) float64 {
	return fastest(microReps, func() float64 {
		pw := slo.New(slo.Config{SampleN: 1}).PortWatch()
		const depth = 16
		ring := make([]pkt.Packet, depth)
		for i := range ring {
			ring[i] = pkt.Packet{ID: uint64(i + 1), Flow: 8, Tenant: 1, Size: 1524, Rank: int64(i * 37 % 101)}
			pw.OnEnqueue(0, &ring[i])
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p := &ring[i%depth]
			pw.OnDequeue(sim.Time(i), p)
			p.ID += depth
			pw.OnEnqueue(sim.Time(i), p)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}

// epochAcqRelNs is the cost of one uncontended Acquire+Release pair.
func epochAcqRelNs(store *core.EpochStore, n int) float64 {
	return fastest(microReps, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			store.Release(store.Acquire().Gen)
		}
		return float64(time.Since(t0)) / float64(n)
	})
}
