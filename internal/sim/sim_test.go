package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000µs"},
		{1500 * Nanosecond, "1.500µs"},
		{Millisecond, "1.000ms"},
		{2500 * Microsecond, "2.500ms"},
		{Second, "1.000s"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2.0", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("Seconds() = %v, want 0.5", got)
	}
}

func TestRunInOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{30, 10, 20, 10, 40} {
		d := d
		e.At(d, func(now Time) { got = append(got, now) })
	}
	e.Run(MaxTime)
	want := []Time{10, 10, 20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at index %d: got %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time = -1
	e.At(100, func(Time) {
		e.After(50, func(now Time) { at = now })
	})
	e.Run(MaxTime)
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.At(100, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func(Time) {})
	})
	e.Run(MaxTime)
}

func TestAfterNegativePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending before run")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should return true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should return false")
	}
	e.Run(MaxTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	h := e.At(10, func(Time) {})
	e.Run(MaxTime)
	if h.Pending() {
		t.Fatal("fired event still pending")
	}
	if h.Cancel() {
		t.Fatal("Cancel after firing should return false")
	}
}

func TestHorizonStopsRun(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	end := e.Run(25)
	if end != 25 {
		t.Fatalf("Run returned %v, want horizon 25", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (10 and 20)", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25", e.Now())
	}
}

func TestRunResumesPastHorizon(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 30, 50} {
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.Run(20)
	if len(fired) != 1 {
		t.Fatalf("first phase fired %d, want 1", len(fired))
	}
	e.Run(MaxTime)
	if len(fired) != 3 {
		t.Fatalf("resumed run fired %d total, want 3 (event at horizon must not be lost)", len(fired))
	}
	if fired[1] != 30 || fired[2] != 50 {
		t.Fatalf("resumed order wrong: %v", fired)
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	e := New()
	ran := false
	e.At(25, func(Time) { ran = true })
	e.Run(25)
	if !ran {
		t.Fatal("event exactly at horizon should run")
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	e.At(1, func(Time) { count++; e.Stop() })
	e.At(2, func(Time) { count++ })
	e.Run(MaxTime)
	if count != 1 {
		t.Fatalf("ran %d events after Stop, want 1", count)
	}
	// Run again resumes.
	e.Run(MaxTime)
	if count != 2 {
		t.Fatalf("resumed run total = %d, want 2", count)
	}
}

func TestStep(t *testing.T) {
	e := New()
	count := 0
	e.At(5, func(Time) { count++ })
	e.At(7, func(Time) { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 || e.Now() != 5 {
		t.Fatalf("after one step count=%d now=%v", count, e.Now())
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	e := New()
	h := e.At(1, func(Time) { t.Fatal("cancelled event ran") })
	ran := false
	e.At(2, func(Time) { ran = true })
	h.Cancel()
	if !e.Step() {
		t.Fatal("Step should run the live event")
	}
	if !ran {
		t.Fatal("live event did not run")
	}
}

func TestReentrantScheduling(t *testing.T) {
	// Events scheduled from within events at the same timestamp run in
	// insertion order after currently queued same-time events.
	e := New()
	var order []string
	e.At(10, func(now Time) {
		order = append(order, "a")
		e.At(10, func(Time) { order = append(order, "c") })
	})
	e.At(10, func(Time) { order = append(order, "b") })
	e.Run(MaxTime)
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestChainedEvents(t *testing.T) {
	// A self-perpetuating event chain advances time correctly.
	e := New()
	var times []Time
	var tick func(Time)
	tick = func(now Time) {
		times = append(times, now)
		if len(times) < 5 {
			e.After(3, tick)
		}
	}
	e.At(0, tick)
	e.Run(MaxTime)
	for i, at := range times {
		if at != Time(3*i) {
			t.Fatalf("tick %d at %v, want %d", i, at, 3*i)
		}
	}
}

// TestPropertyOrdering checks via quick that any batch of events fires in
// nondecreasing time order regardless of insertion order.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func(now Time) { fired = append(fired, now) })
		}
		e.Run(MaxTime)
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelSubset checks that cancelling an arbitrary subset fires
// exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		handles := make([]Handle, n)
		fired := make([]bool, n)
		for i := 0; i < int(n); i++ {
			i := i
			handles[i] = e.At(Time(rng.Intn(50)), func(Time) { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := range handles {
			if rng.Intn(2) == 0 {
				handles[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run(MaxTime)
		for i := range fired {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		rng := rand.New(rand.NewSource(42))
		var fired []Time
		for i := 0; i < 500; i++ {
			e.At(Time(rng.Intn(1000)), func(now Time) { fired = append(fired, now) })
		}
		e.Run(MaxTime)
		return fired
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkEngineFig4Mix holds the queue at the shape a Figure-4 run
// gives it: ≈120 pending, 90 of them 100 µs–20 ms ahead (flow starts, RTO
// timers), and 30 chains that each re-arm 25 % <1 µs, 60 % 1–10 µs and
// 15 % 10–100 µs ahead (serialization, propagation, CBR ticks).
func BenchmarkEngineFig4Mix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	near := make([]Time, 4096)
	for i := range near {
		switch r := rng.Float64(); {
		case r < 0.25:
			near[i] = Time(rng.Intn(1000))
		case r < 0.85:
			near[i] = Microsecond + Time(rng.Intn(int(9*Microsecond)))
		default:
			near[i] = 10*Microsecond + Time(rng.Intn(int(90*Microsecond)))
		}
	}
	far := make([]Time, 1024)
	for i := range far {
		far[i] = 100*Microsecond + Time(rng.Int63n(int64(20*Millisecond)))
	}
	e := New()
	n := 0
	rearm := func(offsets []Time) Event {
		var fn Event
		fn = func(Time) {
			if n++; n >= b.N {
				e.Stop()
			}
			e.After(offsets[n%len(offsets)], fn)
		}
		return fn
	}
	nearFn, farFn := rearm(near), rearm(far)
	for i := 0; i < 30; i++ {
		e.After(near[i], nearFn)
	}
	for i := 0; i < 90; i++ {
		e.After(far[i], farFn)
	}
	b.ResetTimer()
	e.Run(MaxTime)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// --- free-list / Reset / handle-generation tests (zero-alloc engine) ---

func TestResetRewindsEngine(t *testing.T) {
	e := New()
	var fired int
	e.At(10, func(Time) { fired++ })
	e.At(20, func(Time) { fired++ })
	e.Run(MaxTime)
	e.At(99, func(Time) { fired++ }) // left pending across Reset
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d fired=%d, want zeros", e.Now(), e.Pending(), e.Fired())
	}
	// The engine must behave exactly like a fresh one, including seq-based
	// tie-breaking.
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run(MaxTime)
	if fired != 2 {
		t.Fatalf("pending event from before Reset fired (fired=%d)", fired)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break after Reset violated at %d: got %d", i, v)
		}
	}
}

func TestStaleHandleCannotCancelRecycledItem(t *testing.T) {
	e := New()
	h1 := e.At(1, func(Time) {})
	e.Run(MaxTime) // fires h1; its item goes to the free list
	var fired bool
	h2 := e.At(2, func(Time) { fired = true }) // reuses the recycled item
	if h1.it != h2.it {
		t.Skip("free list did not reuse the item; generation guard untestable here")
	}
	if h1.Cancel() {
		t.Fatal("stale handle claimed to cancel a recycled item")
	}
	if h1.Pending() {
		t.Fatal("stale handle claims pending")
	}
	e.Run(MaxTime)
	if !fired {
		t.Fatal("stale handle cancelled an unrelated event")
	}
}

func TestResetInvalidatesHandles(t *testing.T) {
	e := New()
	h := e.At(5, func(Time) { t.Fatal("event fired across Reset") })
	e.Reset()
	if h.Pending() {
		t.Fatal("handle pending after Reset")
	}
	if h.Cancel() {
		t.Fatal("handle cancellable after Reset")
	}
	e.Run(MaxTime)
}

// TestCancelReleasesCallback: cancelling must nil the callback immediately
// so pooled payloads aren't pinned until the queue drains past the dead
// item (the cancelled-event memory-leak fix).
func TestCancelReleasesCallback(t *testing.T) {
	e := New()
	h := e.At(1000, func(Time) {})
	if !h.Cancel() {
		t.Fatal("Cancel returned false for a pending event")
	}
	if h.it.fn != nil {
		t.Fatal("cancelled event still references its callback")
	}
	e.Run(MaxTime)
	if e.Fired() != 0 {
		t.Fatal("cancelled event fired")
	}
}

func TestHandleBeyondHorizonStaysCancellable(t *testing.T) {
	// An event beyond the horizon stays queued across Run calls, in
	// either tier; its handle must stay valid and cancellable.
	for _, at := range []Time{100, 10 * Millisecond} {
		e := New()
		var fired bool
		h := e.At(at, func(Time) { fired = true })
		e.Run(50)
		e.Run(60)
		if !h.Pending() {
			t.Fatalf("event at %v beyond the horizon lost its handle", at)
		}
		if !h.Cancel() {
			t.Fatalf("could not cancel event at %v beyond the horizon", at)
		}
		e.Run(MaxTime)
		if fired {
			t.Fatalf("cancelled event at %v fired", at)
		}
	}
}

// farAhead is far enough ahead of now to land in the far heap.
const farAhead = 3 * wheelSlots << slotShift

// TestAllocBudgetEngine: a warmed schedule→fire cycle through both tiers
// must not allocate.
func TestAllocBudgetEngine(t *testing.T) {
	e := New()
	fn := func(Time) {}
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		e.After(Time(i), fn)
		e.After(farAhead+Time(i), fn)
	}
	e.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.After(5, fn)
		e.After(farAhead, fn)
		if e.wheel.n != 2 || len(e.heap) != 1 {
			t.Fatalf("wheel %d, heap %d: want 2 near and 1 far", e.wheel.n, len(e.heap))
		}
		e.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f objects/op, budget is 0", allocs)
	}
}

// TestAllocBudgetCancel: cancel must be allocation-free too, in both
// tiers.
func TestAllocBudgetCancel(t *testing.T) {
	e := New()
	fn := func(Time) {}
	e.After(1, fn)
	e.After(farAhead, fn)
	e.Run(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.After(10, fn)
		f := e.After(farAhead, fn)
		if e.wheel.n != 1 || len(e.heap) != 1 {
			t.Fatalf("wheel %d, heap %d: want 1 near and 1 far", e.wheel.n, len(e.heap))
		}
		h.Cancel()
		f.Cancel()
		e.Run(MaxTime)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f objects/op, budget is 0", allocs)
	}
}

// TestAllocBudgetReset: a sweep trial — Reset, schedule into a populated
// wheel and the far heap, run part-way — reuses the engine's wheel, heap
// and items instead of allocating them per trial.
func TestAllocBudgetReset(t *testing.T) {
	e := New()
	fn := func(Time) {}
	trial := func() {
		e.Reset()
		for i := 0; i < 256; i++ {
			e.At(Time(i*997), fn)
			if i%8 == 0 {
				e.At(farAhead+Time(i), fn)
			}
		}
		e.Run(100 * Microsecond)
	}
	trial()
	allocs := testing.AllocsPerRun(100, trial)
	if allocs != 0 {
		t.Fatalf("Reset+schedule+Run trial allocates %.1f objects/op, budget is 0", allocs)
	}
	if e.wheel.n == 0 || len(e.heap) == 0 {
		t.Fatalf("trial left wheel %d, heap %d: want both populated", e.wheel.n, len(e.heap))
	}
}

// --- wheel boundaries ---

// TestWheelSpanBoundaryAcrossRotations: an event one span minus one slot
// ahead joins the wheel, one exactly one span ahead joins the heap, and
// both fire on time while now crosses several full rotations of the
// wheel.
func TestWheelSpanBoundaryAcrossRotations(t *testing.T) {
	const slot = Time(1) << slotShift
	const span = wheelSlots * slot
	e := New()
	var got, want []Time
	record := func(now Time) { got = append(got, now) }
	rounds := 0
	var tick Event
	tick = func(now Time) {
		w, h := e.wheel.n, len(e.heap)
		e.At(now+span-slot, record)
		if e.wheel.n != w+1 {
			t.Fatalf("round %d: event one span minus one slot ahead missed the wheel", rounds)
		}
		e.At(now+span, record)
		if len(e.heap) != h+1 {
			t.Fatalf("round %d: event one span ahead missed the heap", rounds)
		}
		want = append(want, now+span-slot, now+span)
		if rounds++; rounds < 60 {
			e.After(span/9+Time(rounds), tick) // ≈6.6 rotations, drifting across slot offsets
		}
	}
	e.At(3, tick)
	e.Run(MaxTime)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestTierTieBreakBySequence: a far-tier and a near-tier event at the same
// nanosecond fire in push order. In normal use the far one is always the
// older (a later push at the same time joins the wheel); the forced case
// pins that the merge compares sequence numbers, not tiers.
func TestTierTieBreakBySequence(t *testing.T) {
	const at = farAhead + 5
	var order []string
	rec := func(s string) Event { return func(Time) { order = append(order, s) } }

	e := New()
	e.At(at, rec("far"))
	e.At(at-100, func(Time) { e.At(at, rec("near")) })
	e.Run(at - 101)
	if len(e.heap) != 2 || e.wheel.n != 0 {
		t.Fatalf("setup: heap %d wheel %d", len(e.heap), e.wheel.n)
	}
	e.Step() // fires at-100, which pushes "near" into the wheel
	if len(e.heap) != 1 || e.wheel.n != 1 {
		t.Fatalf("after step: heap %d wheel %d, want one in each tier", len(e.heap), e.wheel.n)
	}
	e.Run(MaxTime)
	if want := []string{"far", "near"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("far pushed first: order %v, want %v", order, want)
	}

	order = nil
	e = New()
	e.At(500, rec("near"))
	e.base -= 2 * wheelSlots // the next push misses the wheel's window
	e.At(500, rec("far"))
	e.base += 2 * wheelSlots
	if len(e.heap) != 1 || e.wheel.n != 1 {
		t.Fatalf("forced: heap %d wheel %d, want one in each tier", len(e.heap), e.wheel.n)
	}
	e.Run(MaxTime)
	if want := []string{"near", "far"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("near pushed first: order %v, want %v", order, want)
	}
}

// TestCancelledSlotHeadSkipped: a cancelled item at the head of a wheel
// slot is skipped by NextAt, Step and Run, and goes back to the free
// list.
func TestCancelledSlotHeadSkipped(t *testing.T) {
	for _, drive := range []string{"NextAt", "Step", "Run"} {
		e := New()
		var fired []Time
		rec := func(now Time) { fired = append(fired, now) }
		h := e.At(100, rec) // slot 6
		e.At(101, rec)      // same slot, behind it
		if !h.Cancel() {
			t.Fatal("Cancel failed")
		}
		free := len(e.free)
		switch drive {
		case "NextAt":
			if at, ok := e.NextAt(); !ok || at != 101 {
				t.Fatalf("NextAt = %v,%v want 101,true", at, ok)
			}
		case "Step":
			if !e.Step() {
				t.Fatal("Step found nothing")
			}
		case "Run":
			e.Run(MaxTime)
		}
		if h.Pending() || h.it.gen == h.gen {
			t.Fatalf("%s: cancelled head was not recycled", drive)
		}
		if drive == "NextAt" {
			if len(e.free) != free+1 || e.Pending() != 1 {
				t.Fatalf("NextAt: free %d→%d, pending %d", free, len(e.free), e.Pending())
			}
			continue
		}
		if !reflect.DeepEqual(fired, []Time{101}) || e.Pending() != 0 {
			t.Fatalf("%s: fired %v, pending %d; want [101], 0", drive, fired, e.Pending())
		}
	}
}

func TestResetDeterminism(t *testing.T) {
	// A reused engine must replay a randomized schedule identically to a
	// fresh engine.
	run := func(e *Engine, seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		var got []Time
		for i := 0; i < 200; i++ {
			e.At(Time(rng.Intn(50)), func(now Time) { got = append(got, now) })
		}
		e.Run(MaxTime)
		return got
	}
	reused := New()
	run(reused, 1) // dirty it
	reused.Reset()
	a := run(reused, 7)
	b := run(New(), 7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The three tests below pin the same-timestamp FIFO contract the sharded
// barrier merge relies on (see the Engine doc, "Same-timestamp
// ordering"): insertion order among equal timestamps survives Cancel,
// interleaves correctly with re-scheduling, and restarts cleanly on
// Reset.

func TestTieBreakSurvivesCancel(t *testing.T) {
	e := New()
	var order []int
	var handles []Handle
	for i := 0; i < 20; i++ {
		i := i
		handles = append(handles, e.At(5, func(Time) { order = append(order, i) }))
	}
	// Cancel every third event; the survivors must keep their relative
	// insertion order — a cancelled item's heap slot must not let a later
	// insertion jump the queue.
	var want []int
	for i, h := range handles {
		if i%3 == 0 {
			h.Cancel()
		} else {
			want = append(want, i)
		}
	}
	// Events scheduled after the cancellations, at the same timestamp,
	// must fire after all survivors.
	for i := 20; i < 25; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
		want = append(want, i)
	}
	e.Run(MaxTime)
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order after cancels = %v, want %v", order, want)
	}
}

func TestTieBreakCancelThenRescheduleSameTime(t *testing.T) {
	// Cancelling and re-scheduling "the same" logical event moves it to
	// the back of its timestamp's FIFO — the re-schedule takes a fresh
	// sequence number; the old one is burned, never reused.
	e := New()
	var order []string
	a := e.At(7, func(Time) { order = append(order, "a") })
	e.At(7, func(Time) { order = append(order, "b") })
	a.Cancel()
	e.At(7, func(Time) { order = append(order, "a2") })
	e.Run(MaxTime)
	want := []string{"b", "a2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestTieBreakResetRestartsSequence(t *testing.T) {
	// After Reset the sequence counter restarts at zero, so replaying the
	// same schedule — including a cancellation — reproduces the same
	// tie-break order. The sharded determinism regression depends on
	// this when engines are reused across runs.
	run := func(e *Engine) []int {
		var order []int
		var hs []Handle
		for i := 0; i < 10; i++ {
			i := i
			hs = append(hs, e.At(3, func(Time) { order = append(order, i) }))
		}
		hs[4].Cancel()
		e.Run(MaxTime)
		return order
	}
	e := New()
	first := run(e)
	e.Reset()
	second := run(e)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("tie-break order changed across Reset: %v vs %v", first, second)
	}
	if e.seq != 10 {
		t.Fatalf("sequence after reset run = %d, want 10 (restarted at zero)", e.seq)
	}
}
