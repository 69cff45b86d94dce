package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"qvisor/internal/pkt"
)

// dropLog records one side's drop callbacks in order.
type dropLog []string

func (l *dropLog) fn() DropFn {
	return func(p *pkt.Packet, c DropCause) { *l = append(*l, fmt.Sprintf("%d/%v", p.ID, c)) }
}

// lockstep drives the reference (the parent commit's code, reference_test.go)
// and the bank-backed discipline with one seeded script and fails on the
// first observable difference: Enqueue results, drop callbacks with cause,
// dequeue order, Len/Bytes after every step, Stats, and — through a Reset
// two thirds of the way in — the state a reused scheduler starts from.
func lockstep(t *testing.T, label string, seed, maxRank int64, buildRef, buildGot func(DropFn) Scheduler) {
	t.Helper()
	var refDrops, gotDrops dropLog
	ref, got := buildRef(refDrops.fn()), buildGot(gotDrops.fn())
	if ref.Name() != got.Name() {
		t.Fatalf("%s: Name %q, reference %q", label, got.Name(), ref.Name())
	}
	rng := rand.New(rand.NewSource(seed))
	const steps = 600
	for step := 0; step < steps; step++ {
		what := "dequeue"
		switch {
		case step == 2*steps/3:
			what = "reset"
			ref.Reset()
			got.Reset()
		case rng.Intn(5) < 3:
			p := &pkt.Packet{ID: uint64(step), Rank: rng.Int63n(maxRank), Size: 64 + rng.Intn(1437)}
			what = fmt.Sprintf("enqueue(rank %d, size %d)", p.Rank, p.Size)
			if r, g := ref.Enqueue(p), got.Enqueue(p); r != g {
				t.Fatalf("%s seed %d step %d: %s = %v, reference %v", label, seed, step, what, g, r)
			}
		default:
			if r, g := ref.Dequeue(), got.Dequeue(); r != g {
				t.Fatalf("%s seed %d step %d: dequeued %v, reference %v", label, seed, step, g, r)
			}
		}
		if ref.Len() != got.Len() || ref.Bytes() != got.Bytes() {
			t.Fatalf("%s seed %d step %d after %s: len/bytes %d/%d, reference %d/%d",
				label, seed, step, what, got.Len(), got.Bytes(), ref.Len(), ref.Bytes())
		}
		if len(refDrops) != len(gotDrops) || (len(refDrops) > 0 && refDrops[len(refDrops)-1] != gotDrops[len(gotDrops)-1]) {
			t.Fatalf("%s seed %d step %d after %s: drops %v, reference %v", label, seed, step, what, gotDrops, refDrops)
		}
	}
	for r, g := ref.Dequeue(), got.Dequeue(); r != nil || g != nil; r, g = ref.Dequeue(), got.Dequeue() {
		if r != g {
			t.Fatalf("%s seed %d drain: dequeued %v, reference %v", label, seed, g, r)
		}
	}
	type statser interface{ Stats() Stats }
	if r, g := ref.(statser).Stats(), got.(statser).Stats(); r != g {
		t.Fatalf("%s seed %d: stats %v, reference %v", label, seed, g, r)
	}
}

// TestBankMatchesReference pins the queue-bank collapse: AIFO built as an
// Admission bank of one queue, and Calendar as a rotation cursor over the
// bank, behave event for event like the stand-alone implementations they
// replaced — over 200 seeds, across window and burst settings, small
// buffers that overflow, and ranks both inside the calendar horizon and
// three times beyond it.
func TestBankMatchesReference(t *testing.T) {
	aifos := []AIFOConfig{
		{},
		{WindowSize: 4},
		{WindowSize: 8, Burst: 0.5},
		{WindowSize: 64, Burst: 0.9},
		{WindowSize: 128, Burst: 0.01},
	}
	for vi, v := range aifos {
		for _, capacity := range []int{0, 6000, 40000} {
			label := fmt.Sprintf("aifo/window=%d,burst=%v,cap=%d", v.WindowSize, v.Burst, capacity)
			for seed := int64(0); seed < 200; seed++ {
				cfg := func(d DropFn) AIFOConfig {
					v.Config = Config{CapacityBytes: capacity, OnDrop: d}
					return v
				}
				lockstep(t, label, seed*31+int64(vi), 1000,
					func(d DropFn) Scheduler { return newRefAIFO(cfg(d)) },
					func(d DropFn) Scheduler { return NewAIFO(cfg(d)) })
			}
		}
	}
	calendars := []struct {
		n     int
		width int64
	}{{1, 1}, {4, 10}, {16, 100}, {32, 7}}
	for _, c := range calendars {
		horizon := int64(c.n) * c.width
		for _, maxRank := range []int64{horizon, 3 * horizon} {
			for _, capacity := range []int{0, 9000} {
				label := fmt.Sprintf("calendar:%d:%d/ranks<%d,cap=%d", c.n, c.width, maxRank, capacity)
				for seed := int64(0); seed < 200; seed++ {
					cfg := func(d DropFn) Config { return Config{CapacityBytes: capacity, OnDrop: d} }
					lockstep(t, label, seed, maxRank,
						func(d DropFn) Scheduler { return newRefCalendar(cfg(d), c.n, c.width) },
						func(d DropFn) Scheduler { return NewCalendar(cfg(d), c.n, c.width) })
				}
			}
		}
	}
}

// TestRingMatchesReference drives pkt.Ring against the parent's ring over
// random pushes, pops, peeks and resets.
func TestRingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refRing
		var got pkt.Ring
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				p := &pkt.Packet{ID: uint64(step)}
				ref.push(p)
				got.Push(p)
			case op < 9:
				if r, g := ref.pop(), got.Pop(); r != g {
					t.Fatalf("seed %d step %d: popped %v, reference %v", seed, step, g, r)
				}
			default:
				if rng.Intn(8) == 0 {
					ref.reset()
					got.Reset()
				}
			}
			if ref.n != got.Len() || ref.peek() != got.Peek() {
				t.Fatalf("seed %d step %d: len %d head %v, reference len %d head %v",
					seed, step, got.Len(), got.Peek(), ref.n, ref.peek())
			}
		}
	}
}

// TestCalendarIsBucketQInsideHorizon pins the half of ROADMAP 4(c)'s
// question that holds: while every arrival's rank stays inside the rank
// horizon, a Calendar and a BucketQ of the same shape agree event for
// event. (Beyond it the calendar clamps and the bucket queue overflows,
// which is why Calendar is not a BucketQ configuration; DESIGN.md.)
func TestCalendarIsBucketQInsideHorizon(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, width := 1+rng.Intn(32), 1+rng.Int63n(50)
		var calDrops, bqDrops dropLog
		cal := NewCalendar(Config{CapacityBytes: 20000, OnDrop: calDrops.fn()}, n, width)
		bq := NewBucketQ(Config{CapacityBytes: 20000, OnDrop: bqDrops.fn()}, n, width)
		for step := 0; step < 600; step++ {
			if rng.Intn(5) < 3 {
				// BaseRank is the horizon's start; ranks before it join the
				// current bucket in both disciplines.
				r := bq.BaseRank() - width + rng.Int63n((int64(n)+1)*width)
				p := &pkt.Packet{ID: uint64(step), Rank: r, Size: 64 + rng.Intn(1437)}
				if c, b := cal.Enqueue(p), bq.Enqueue(p); c != b {
					t.Fatalf("seed %d step %d: enqueue(rank %d) calendar %v, bucketq %v", seed, step, r, c, b)
				}
			} else if c, b := cal.Dequeue(), bq.Dequeue(); c != b {
				t.Fatalf("seed %d step %d: calendar dequeued %v, bucketq %v", seed, step, c, b)
			}
			if cal.Len() != bq.Len() || cal.Bytes() != bq.Bytes() || len(calDrops) != len(bqDrops) || bq.OverflowLen() != 0 {
				t.Fatalf("seed %d step %d: calendar %d/%d/%d drops, bucketq %d/%d/%d drops, overflow %d", seed, step,
					cal.Len(), cal.Bytes(), len(calDrops), bq.Len(), bq.Bytes(), len(bqDrops), bq.OverflowLen())
			}
		}
	}
}
