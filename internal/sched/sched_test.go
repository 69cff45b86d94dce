package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"qvisor/internal/pkt"
)

func mkpkt(rank int64, size int) *pkt.Packet {
	return &pkt.Packet{Rank: rank, Size: size}
}

func drain(s Scheduler) []int64 {
	var out []int64
	for p := s.Dequeue(); p != nil; p = s.Dequeue() {
		out = append(out, p.Rank)
	}
	return out
}

// --- PIFO ---

func TestPIFOOrdersByRank(t *testing.T) {
	q := NewPIFO(Config{})
	for _, r := range []int64{5, 1, 9, 3, 7} {
		if !q.Enqueue(mkpkt(r, 100)) {
			t.Fatal("enqueue failed")
		}
	}
	got := drain(q)
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

func TestPIFOFIFOAmongTies(t *testing.T) {
	q := NewPIFO(Config{})
	ids := []uint64{1, 2, 3, 4}
	for _, id := range ids {
		q.Enqueue(&pkt.Packet{ID: id, Rank: 7, Size: 10})
	}
	for _, want := range ids {
		p := q.Dequeue()
		if p.ID != want {
			t.Fatalf("tie order violated: got id %d, want %d", p.ID, want)
		}
	}
}

func TestPIFOEvictsWorstWhenFull(t *testing.T) {
	var dropped []int64
	q := NewPIFO(Config{CapacityBytes: 300, OnDrop: func(p *pkt.Packet, _ DropCause) { dropped = append(dropped, p.Rank) }})
	q.Enqueue(mkpkt(10, 100))
	q.Enqueue(mkpkt(20, 100))
	q.Enqueue(mkpkt(30, 100))
	// Better packet arrives into a full buffer: rank 30 is evicted.
	if !q.Enqueue(mkpkt(5, 100)) {
		t.Fatal("better packet should be admitted via eviction")
	}
	if len(dropped) != 1 || dropped[0] != 30 {
		t.Fatalf("dropped %v, want [30]", dropped)
	}
	// Worse packet is rejected outright.
	if q.Enqueue(mkpkt(99, 100)) {
		t.Fatal("worse packet should be dropped")
	}
	got := drain(q)
	want := []int64{5, 10, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remaining %v, want %v", got, want)
		}
	}
	st := q.Stats()
	if st.Evicted != 1 || st.Dropped != 1 {
		t.Fatalf("stats %v, want 1 evict / 1 drop", st)
	}
}

func TestPIFOEvictionTieFavorsQueued(t *testing.T) {
	q := NewPIFO(Config{CapacityBytes: 100})
	q.Enqueue(mkpkt(10, 100))
	if q.Enqueue(mkpkt(10, 100)) {
		t.Fatal("equal-rank arrival into full buffer must be dropped, not evict")
	}
}

// TestPIFOEvictsMostRecentAmongWorstTies: when many queued packets share
// the worst rank, each eviction takes the latest of them to arrive. The
// backlogs give heaps of one, two, three and ten levels.
func TestPIFOEvictsMostRecentAmongWorstTies(t *testing.T) {
	const worst = 100
	for _, backlog := range []int{3, 7, 64, 1000} {
		rng := rand.New(rand.NewSource(int64(backlog)))
		var evicted []uint64
		q := NewPIFO(Config{CapacityBytes: backlog * 10, OnDrop: func(p *pkt.Packet, c DropCause) {
			if c != CauseEvicted {
				t.Fatalf("backlog %d: packet %d dropped with cause %v", backlog, p.ID, c)
			}
			evicted = append(evicted, p.ID)
		}})
		var ties []uint64 // IDs of the worst-rank packets, in arrival order
		for id := uint64(1); id <= uint64(backlog); id++ {
			r := int64(rng.Intn(worst))
			if id <= 2 || rng.Intn(2) == 0 {
				r = worst
				ties = append(ties, id)
			}
			q.Enqueue(&pkt.Packet{ID: id, Rank: r, Size: 10})
		}
		for i := range ties {
			if !q.Enqueue(&pkt.Packet{ID: uint64(backlog + 1 + i), Rank: int64(rng.Intn(worst)), Size: 10}) {
				t.Fatalf("backlog %d: better arrival %d refused", backlog, i)
			}
			want := ties[len(ties)-1-i]
			if len(evicted) != i+1 || evicted[i] != want {
				t.Fatalf("backlog %d: evicted %v, want packet %d next (ties %v)", backlog, evicted, want, ties)
			}
		}
	}
}

func TestPIFOBytesAccounting(t *testing.T) {
	q := NewPIFO(Config{})
	q.Enqueue(mkpkt(1, 100))
	q.Enqueue(mkpkt(2, 250))
	if q.Bytes() != 350 || q.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 350/2", q.Bytes(), q.Len())
	}
	q.Dequeue()
	if q.Bytes() != 250 || q.Len() != 1 {
		t.Fatalf("after dequeue bytes=%d len=%d", q.Bytes(), q.Len())
	}
}

func TestPIFOPeek(t *testing.T) {
	q := NewPIFO(Config{})
	if q.Peek() != nil {
		t.Fatal("peek on empty should be nil")
	}
	q.Enqueue(mkpkt(5, 10))
	q.Enqueue(mkpkt(2, 10))
	if q.Peek().Rank != 2 {
		t.Fatalf("peek rank %d, want 2", q.Peek().Rank)
	}
	if q.Len() != 2 {
		t.Fatal("peek must not remove")
	}
}

func TestPIFOEmptyDequeue(t *testing.T) {
	q := NewPIFO(Config{})
	if q.Dequeue() != nil {
		t.Fatal("dequeue on empty should be nil")
	}
}

// TestPIFOPropertySorted: any enqueue sequence dequeues in sorted order.
func TestPIFOPropertySorted(t *testing.T) {
	f := func(ranks []int16) bool {
		q := NewPIFO(Config{CapacityBytes: 1 << 30})
		for _, r := range ranks {
			q.Enqueue(mkpkt(int64(r), 1))
		}
		out := drain(q)
		return sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPIFOPropertyKeepsBest: under overflow, the set kept is the best-ranked
// prefix of the offered packets.
func TestPIFOPropertyKeepsBest(t *testing.T) {
	f := func(ranks []uint8) bool {
		const keep = 5
		q := NewPIFO(Config{CapacityBytes: keep}) // 1-byte packets
		for _, r := range ranks {
			q.Enqueue(mkpkt(int64(r), 1))
		}
		out := drain(q)
		all := make([]int64, len(ranks))
		for i, r := range ranks {
			all[i] = int64(r)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		want := all
		if len(want) > keep {
			want = want[:keep]
		}
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- FIFO ---

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO(Config{})
	for _, r := range []int64{5, 1, 9} {
		q.Enqueue(mkpkt(r, 10))
	}
	got := drain(q)
	want := []int64{5, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO order %v, want %v", got, want)
		}
	}
}

func TestFIFOTailDrop(t *testing.T) {
	drops := 0
	q := NewFIFO(Config{CapacityBytes: 100, OnDrop: func(*pkt.Packet, DropCause) { drops++ }})
	if !q.Enqueue(mkpkt(1, 60)) || !q.Enqueue(mkpkt(2, 40)) {
		t.Fatal("within capacity should be admitted")
	}
	if q.Enqueue(mkpkt(0, 1)) {
		t.Fatal("overflow should tail-drop regardless of rank")
	}
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

func TestFIFOPeekAndEmpty(t *testing.T) {
	q := NewFIFO(Config{})
	if q.Peek() != nil || q.Dequeue() != nil {
		t.Fatal("empty FIFO should return nil")
	}
	q.Enqueue(mkpkt(3, 10))
	if q.Peek().Rank != 3 || q.Len() != 1 {
		t.Fatal("peek broken")
	}
}

func TestRingGrowth(t *testing.T) {
	q := NewFIFO(Config{CapacityBytes: 1 << 30})
	const n = 1000
	for i := 0; i < n; i++ {
		q.Enqueue(&pkt.Packet{ID: uint64(i), Size: 1})
	}
	for i := 0; i < n; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != uint64(i) {
			t.Fatalf("ring order broken at %d: %v", i, p)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	q := NewFIFO(Config{CapacityBytes: 1 << 30})
	id := uint64(0)
	next := uint64(0)
	// Interleave pushes and pops to force head wraparound.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Enqueue(&pkt.Packet{ID: id, Size: 1})
			id++
		}
		for i := 0; i < 2; i++ {
			p := q.Dequeue()
			if p.ID != next {
				t.Fatalf("wraparound order broken: got %d, want %d", p.ID, next)
			}
			next++
		}
	}
}

// --- MQ ---

func TestMQStrictPriority(t *testing.T) {
	// Map rank ranges to 3 queues: [0,10) -> 0, [10,20) -> 1, rest -> 2.
	q := NewMQ(Config{}, 3, func(p *pkt.Packet) int { return int(p.Rank / 10) })
	q.Enqueue(mkpkt(25, 10))
	q.Enqueue(mkpkt(5, 10))
	q.Enqueue(mkpkt(15, 10))
	q.Enqueue(mkpkt(7, 10))
	got := drain(q)
	want := []int64{5, 7, 15, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MQ order %v, want %v", got, want)
		}
	}
}

func TestMQMapperClamping(t *testing.T) {
	q := NewMQ(Config{}, 2, func(p *pkt.Packet) int { return int(p.Rank) })
	q.Enqueue(mkpkt(-5, 10)) // clamps to queue 0
	q.Enqueue(mkpkt(99, 10)) // clamps to queue 1
	if q.QueueLen(0) != 1 || q.QueueLen(1) != 1 {
		t.Fatalf("clamping failed: q0=%d q1=%d", q.QueueLen(0), q.QueueLen(1))
	}
}

func TestMQPerQueueCapacity(t *testing.T) {
	q := NewMQ(Config{CapacityBytes: 200}, 2, func(p *pkt.Packet) int { return 0 })
	if !q.Enqueue(mkpkt(1, 100)) {
		t.Fatal("first packet fits in queue 0's 100-byte share")
	}
	if q.Enqueue(mkpkt(1, 50)) {
		t.Fatal("queue 0 share exhausted; should drop")
	}
}

func TestMQInversionCounting(t *testing.T) {
	// All packets into one queue; dequeue of a high rank while a lower
	// rank waits in a lower-priority queue counts as an inversion.
	q := NewMQ(Config{}, 2, func(p *pkt.Packet) int {
		if p.Rank >= 100 {
			return 0 // misconfigured on purpose: high ranks to high priority
		}
		return 1
	})
	q.Enqueue(mkpkt(100, 10))
	q.Enqueue(mkpkt(1, 10))
	q.Dequeue() // dequeues rank 100 while rank 1 waits -> inversion
	if q.Stats().Inversion != 1 {
		t.Fatalf("inversions = %d, want 1", q.Stats().Inversion)
	}
}

func TestMQPanics(t *testing.T) {
	assertPanics(t, func() { NewMQ(Config{}, 0, func(*pkt.Packet) int { return 0 }) })
	assertPanics(t, func() { NewMQ(Config{}, 1, nil) })
}

// --- SP-PIFO ---

func TestSPPIFOSingleQueueIsFIFO(t *testing.T) {
	q := NewSPPIFO(Config{}, 1)
	for _, r := range []int64{5, 1, 9} {
		q.Enqueue(mkpkt(r, 10))
	}
	got := drain(q)
	want := []int64{5, 1, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("1-queue SP-PIFO should be FIFO: %v", got)
		}
	}
}

func TestSPPIFOMappingAndPushUp(t *testing.T) {
	q := NewSPPIFO(Config{}, 2)
	// Bounds start at 0. Rank 5 maps to the lowest-priority queue (index
	// 1) whose bound (0) <= 5, pushing its bound up to 5.
	q.Enqueue(mkpkt(5, 10))
	if q.Bound(1) != 5 {
		t.Fatalf("bound[1] = %d, want 5", q.Bound(1))
	}
	// Rank 3 < bound[1]=5, so it maps to queue 0.
	q.Enqueue(mkpkt(3, 10))
	if q.Bound(0) != 3 {
		t.Fatalf("bound[0] = %d, want 3", q.Bound(0))
	}
	// Dequeue order: queue 0 first.
	if p := q.Dequeue(); p.Rank != 3 {
		t.Fatalf("first dequeue rank %d, want 3", p.Rank)
	}
}

func TestSPPIFOPushDownOnInversion(t *testing.T) {
	q := NewSPPIFO(Config{}, 2)
	q.Enqueue(mkpkt(10, 10)) // queue 1, bound[1]=10
	q.Enqueue(mkpkt(8, 10))  // queue 0, bound[0]=8
	// Rank 2 < bound[0]: inversion. Push-down by 8-2=6.
	q.Enqueue(mkpkt(2, 10))
	if q.Stats().Inversion != 1 {
		t.Fatalf("inversions = %d, want 1", q.Stats().Inversion)
	}
	if q.Bound(0) != 2 || q.Bound(1) != 4 {
		t.Fatalf("bounds after push-down = %d,%d want 2,4", q.Bound(0), q.Bound(1))
	}
}

func TestSPPIFOApproximatesPIFO(t *testing.T) {
	// With monotonically increasing ranks SP-PIFO is exact.
	q := NewSPPIFO(Config{CapacityBytes: 1 << 30}, 8)
	for r := int64(0); r < 100; r++ {
		q.Enqueue(mkpkt(r, 1))
	}
	out := drain(q)
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatal("increasing ranks must dequeue sorted")
	}
}

func TestSPPIFOFewerInversionsWithMoreQueues(t *testing.T) {
	inversions := func(nq int) int {
		rng := rand.New(rand.NewSource(7))
		q := NewSPPIFO(Config{CapacityBytes: 1 << 30}, nq)
		inv := 0
		var prev int64 = -1 << 62
		for i := 0; i < 2000; i++ {
			q.Enqueue(mkpkt(int64(rng.Intn(1000)), 1))
			if i%4 == 3 {
				p := q.Dequeue()
				if p.Rank < prev {
					inv++
				}
				prev = p.Rank
			}
		}
		return inv
	}
	if i8, i1 := inversions(8), inversions(1); i8 >= i1 {
		t.Fatalf("8 queues should invert less than 1 queue: %d vs %d", i8, i1)
	}
}

func TestSPPIFODropWhenFull(t *testing.T) {
	q := NewSPPIFO(Config{CapacityBytes: 10}, 2)
	q.Enqueue(mkpkt(1, 10))
	if q.Enqueue(mkpkt(1, 1)) {
		t.Fatal("full SP-PIFO should drop")
	}
}

func TestSPPIFOPanics(t *testing.T) {
	assertPanics(t, func() { NewSPPIFO(Config{}, 0) })
}

// --- AIFO ---

func TestAIFOAdmitsWhileWindowCold(t *testing.T) {
	q := NewAIFO(AIFOConfig{WindowSize: 8})
	for i := 0; i < 8; i++ {
		if !q.Enqueue(mkpkt(int64(i), 10)) {
			t.Fatalf("cold-window arrival %d dropped", i)
		}
	}
}

func TestAIFORejectsHighRankWhenNearlyFull(t *testing.T) {
	q := NewAIFO(AIFOConfig{
		Config:     Config{CapacityBytes: 1000},
		WindowSize: 4,
		Burst:      0.1,
	})
	// Warm the window with low ranks and fill most of the queue.
	for i := 0; i < 9; i++ {
		q.Enqueue(mkpkt(1, 100))
	}
	// Queue 90% full: headroom 0.1, threshold ~0.11. A rank above the
	// whole window (quantile 1.0) must be rejected.
	if q.Enqueue(mkpkt(100, 100)) {
		t.Fatal("high-rank packet should be rejected by admission control")
	}
	// A rank at the bottom of the window (quantile 0) is admitted.
	if !q.Enqueue(mkpkt(0, 100)) {
		t.Fatal("low-rank packet should be admitted")
	}
}

func TestAIFOFIFOOrderAmongAdmitted(t *testing.T) {
	q := NewAIFO(AIFOConfig{WindowSize: 4})
	for _, r := range []int64{9, 1, 5} {
		q.Enqueue(mkpkt(r, 10))
	}
	got := drain(q)
	want := []int64{9, 1, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AIFO must preserve arrival order: %v", got)
		}
	}
}

func TestAIFOHardCapacity(t *testing.T) {
	q := NewAIFO(AIFOConfig{Config: Config{CapacityBytes: 100}, WindowSize: 4})
	q.Enqueue(mkpkt(1, 100))
	if q.Enqueue(mkpkt(1, 1)) {
		t.Fatal("over-capacity arrival must drop")
	}
}

func TestAIFOPanicsOnBadBurst(t *testing.T) {
	assertPanics(t, func() { NewAIFO(AIFOConfig{Burst: 1.5}) })
	assertPanics(t, func() { NewAIFO(AIFOConfig{Burst: -0.2}) })
}

// --- Calendar ---

func TestCalendarBucketsSortCoarsely(t *testing.T) {
	q := NewCalendar(Config{}, 10, 10)
	for _, r := range []int64{95, 5, 55, 15} {
		q.Enqueue(mkpkt(r, 10))
	}
	got := drain(q)
	want := []int64{5, 15, 55, 95}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("calendar order %v, want %v", got, want)
		}
	}
}

func TestCalendarFIFOWithinBucket(t *testing.T) {
	q := NewCalendar(Config{}, 4, 100)
	q.Enqueue(&pkt.Packet{ID: 1, Rank: 10, Size: 1})
	q.Enqueue(&pkt.Packet{ID: 2, Rank: 90, Size: 1}) // same bucket
	q.Enqueue(&pkt.Packet{ID: 3, Rank: 50, Size: 1}) // same bucket
	for _, want := range []uint64{1, 2, 3} {
		if p := q.Dequeue(); p.ID != want {
			t.Fatalf("within-bucket order: got %d, want %d", p.ID, want)
		}
	}
}

func TestCalendarHorizonClamp(t *testing.T) {
	q := NewCalendar(Config{}, 2, 10)
	q.Enqueue(mkpkt(5, 1))    // bucket 0
	q.Enqueue(mkpkt(1000, 1)) // far beyond horizon: clamps to last bucket
	if p := q.Dequeue(); p.Rank != 5 {
		t.Fatalf("first dequeue %d, want 5", p.Rank)
	}
	if p := q.Dequeue(); p.Rank != 1000 {
		t.Fatalf("second dequeue %d, want 1000", p.Rank)
	}
}

func TestCalendarRotationAdvancesBase(t *testing.T) {
	q := NewCalendar(Config{}, 4, 10)
	q.Enqueue(mkpkt(35, 1)) // last bucket (offset 3)
	if p := q.Dequeue(); p == nil || p.Rank != 35 {
		t.Fatal("should rotate to the occupied bucket")
	}
	// After rotation, base has advanced: a small rank now lands in the
	// current bucket (no past buckets exist).
	q.Enqueue(mkpkt(0, 1))
	if p := q.Dequeue(); p == nil || p.Rank != 0 {
		t.Fatal("past-rank packet should be dequeued from current bucket")
	}
}

func TestCalendarDropWhenFull(t *testing.T) {
	q := NewCalendar(Config{CapacityBytes: 10}, 2, 10)
	q.Enqueue(mkpkt(1, 10))
	if q.Enqueue(mkpkt(1, 1)) {
		t.Fatal("full calendar should drop")
	}
}

func TestCalendarPanics(t *testing.T) {
	assertPanics(t, func() { NewCalendar(Config{}, 0, 10) })
	assertPanics(t, func() { NewCalendar(Config{}, 4, 0) })
}

// --- registry ---

func TestRegistryNames(t *testing.T) {
	for _, name := range []string{"pifo", "fifo", "aifo", "drr", "sppifo:4", "calendar:8:100"} {
		s, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	for _, name := range []string{"bogus", "sppifo", "sppifo:x", "sppifo:0", "calendar:4", "calendar:a:b"} {
		if _, err := New(name, Config{}); err == nil {
			t.Fatalf("New(%q) should fail", name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if len(names) != 6 {
		t.Fatalf("Names() = %v, want 6 entries", names)
	}
}

// --- cross-scheduler properties ---

// TestConservation: packets in = packets out + packets dropped, for every
// scheduler type.
func TestConservation(t *testing.T) {
	builders := map[string]func(drop DropFn) Scheduler{
		"pifo":   func(d DropFn) Scheduler { return NewPIFO(Config{CapacityBytes: 50, OnDrop: d}) },
		"fifo":   func(d DropFn) Scheduler { return NewFIFO(Config{CapacityBytes: 50, OnDrop: d}) },
		"sppifo": func(d DropFn) Scheduler { return NewSPPIFO(Config{CapacityBytes: 50, OnDrop: d}, 4) },
		"aifo": func(d DropFn) Scheduler {
			return NewAIFO(AIFOConfig{Config: Config{CapacityBytes: 50, OnDrop: d}, WindowSize: 8})
		},
		"calendar": func(d DropFn) Scheduler { return NewCalendar(Config{CapacityBytes: 50, OnDrop: d}, 4, 25) },
		"mq": func(d DropFn) Scheduler {
			return NewMQ(Config{CapacityBytes: 50, OnDrop: d}, 2, func(p *pkt.Packet) int { return int(p.Rank % 2) })
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			drops := 0
			s := build(func(*pkt.Packet, DropCause) { drops++ })
			sent, recv := 0, 0
			for i := 0; i < 500; i++ {
				s.Enqueue(mkpkt(int64(rng.Intn(100)), 1+rng.Intn(5)))
				sent++
				if rng.Intn(3) == 0 {
					if s.Dequeue() != nil {
						recv++
					}
				}
			}
			for s.Dequeue() != nil {
				recv++
			}
			if sent != recv+drops {
				t.Fatalf("conservation violated: sent=%d recv=%d drops=%d", sent, recv, drops)
			}
			if s.Len() != 0 || s.Bytes() != 0 {
				t.Fatalf("drained scheduler not empty: len=%d bytes=%d", s.Len(), s.Bytes())
			}
		})
	}
}

// TestWorkConservation: a non-empty scheduler always dequeues something.
func TestWorkConservation(t *testing.T) {
	schedulers := []Scheduler{
		NewPIFO(Config{}),
		NewFIFO(Config{}),
		NewSPPIFO(Config{}, 4),
		NewAIFO(AIFOConfig{}),
		NewCalendar(Config{}, 4, 10),
		NewMQ(Config{}, 2, func(p *pkt.Packet) int { return 0 }),
	}
	for _, s := range schedulers {
		s.Enqueue(mkpkt(42, 10))
		if s.Len() > 0 && s.Dequeue() == nil {
			t.Fatalf("%s: non-empty scheduler returned nil", s.Name())
		}
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// --- benchmarks ---

// benchRanks is a fixed table of random ranks the PIFO benchmarks cycle
// through; its length is a power of two.
func benchRanks(n int) []int64 {
	rng := rand.New(rand.NewSource(1))
	ranks := make([]int64, n)
	for i := range ranks {
		ranks[i] = int64(rng.Intn(1 << 20))
	}
	return ranks
}

// benchPIFOSteady enqueues one packet and dequeues one per op against a
// standing backlog. Every queued packet is a distinct *pkt.Packet; only the
// packet just dequeued is re-ranked and offered again.
func benchPIFOSteady(b *testing.B, backlog int) {
	q := NewPIFO(Config{CapacityBytes: 1 << 30})
	ranks := benchRanks(1 << 17)
	mask := len(ranks) - 1
	for i := 0; i < backlog; i++ {
		q.Enqueue(&pkt.Packet{ID: uint64(i), Rank: ranks[i&mask], Size: 64})
	}
	next := &pkt.Packet{ID: uint64(backlog), Size: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next.Rank = ranks[(backlog+i)&mask]
		q.Enqueue(next)
		next = q.Dequeue()
	}
}

func BenchmarkPIFOEnqueueDequeue(b *testing.B) { benchPIFOSteady(b, 512) }

// BenchmarkPIFODeep is the heap at pipe_batch_deep's 64 k backlog.
func BenchmarkPIFODeep(b *testing.B) { benchPIFOSteady(b, 1<<16) }

// BenchmarkPIFOFullBuffer is the eviction path: 1500-byte packets into the
// default 150 kB buffer (100 packets), two offered per one dequeued, so
// most arrivals find the buffer full and either evict the worst queued
// packet or are refused.
func BenchmarkPIFOFullBuffer(b *testing.B) {
	var spare []*pkt.Packet
	q := NewPIFO(Config{OnDrop: func(p *pkt.Packet, _ DropCause) { spare = append(spare, p) }})
	for i := 0; i < 2*DefaultCapacityBytes/1500; i++ {
		spare = append(spare, &pkt.Packet{ID: uint64(i), Size: 1500})
	}
	ranks := benchRanks(1024)
	offer := func(i int) {
		p := spare[len(spare)-1]
		spare = spare[:len(spare)-1]
		p.Rank = ranks[i&1023]
		q.Enqueue(p)
		if i&1 == 0 {
			spare = append(spare, q.Dequeue())
		}
	}
	for i := 0; i < 1024; i++ {
		offer(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer(i)
	}
}

func BenchmarkSPPIFOEnqueueDequeue(b *testing.B) {
	q := NewSPPIFO(Config{CapacityBytes: 1 << 30}, 8)
	rng := rand.New(rand.NewSource(1))
	p := &pkt.Packet{Size: 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rank = int64(rng.Intn(1 << 20))
		q.Enqueue(p)
		if q.Len() > 512 {
			q.Dequeue()
		}
	}
}

func BenchmarkAIFOEnqueue(b *testing.B) {
	q := NewAIFO(AIFOConfig{Config: Config{CapacityBytes: 1 << 30}})
	rng := rand.New(rand.NewSource(1))
	p := &pkt.Packet{Size: 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rank = int64(rng.Intn(1 << 20))
		q.Enqueue(p)
		if q.Len() > 512 {
			q.Dequeue()
		}
	}
}
