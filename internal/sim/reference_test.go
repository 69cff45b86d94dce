package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is a verbatim copy of the single binary-heap Engine the
// two-tier engine replaced, kept as the order oracle: for any sequence of
// At/After/Cancel/Run/Step/Reset calls both must fire the same events at
// the same times and report the same Fired/Pending/NextAt. Only the
// identifiers are renamed.

type refItem struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically
	fn   Event
	gen  uint64 // recycle generation; Handles must match to act
	dead bool
}

type refHandle struct {
	it  *refItem
	gen uint64
}

func (h refHandle) Cancel() bool {
	if h.it == nil || h.it.gen != h.gen || h.it.dead {
		return false
	}
	h.it.dead = true
	h.it.fn = nil
	return true
}

func (h refHandle) Pending() bool {
	return h.it != nil && h.it.gen == h.gen && !h.it.dead
}

type refHeap []*refItem

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h refHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func (h *refHeap) push(it *refItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() *refItem {
	old := *h
	n := len(old)
	it := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	return it
}

type refEngine struct {
	now     Time
	seq     uint64
	heap    refHeap
	fired   uint64
	stopped bool
	free    []*refItem
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Fired() uint64 { return e.fired }

func (e *refEngine) Pending() int { return len(e.heap) }

func (e *refEngine) NextAt() (Time, bool) {
	for len(e.heap) > 0 {
		if !e.heap[0].dead {
			return e.heap[0].at, true
		}
		e.recycle(e.heap.pop())
	}
	return 0, false
}

func (e *refEngine) At(at Time, fn Event) refHandle {
	if at < e.now {
		panic(fmt.Sprintf("sim: At(%v) before now=%v: %v", at, e.now, ErrPastEvent))
	}
	var it *refItem
	if n := len(e.free); n > 0 {
		it = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		it = &refItem{}
	}
	it.at, it.seq, it.fn, it.dead = at, e.seq, fn, false
	e.seq++
	e.heap.push(it)
	return refHandle{it: it, gen: it.gen}
}

func (e *refEngine) recycle(it *refItem) {
	it.gen++
	it.fn = nil
	it.dead = true
	e.free = append(e.free, it)
}

func (e *refEngine) After(d Time, fn Event) refHandle {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) negative delay", d))
	}
	return e.At(e.now+d, fn)
}

func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run(horizon Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		it := e.heap.pop()
		if it.dead {
			e.recycle(it)
			continue
		}
		if it.at > horizon {
			e.heap.push(it)
			e.now = horizon
			return e.now
		}
		e.now = it.at
		fn := it.fn
		e.recycle(it)
		e.fired++
		fn(e.now)
	}
	return e.now
}

func (e *refEngine) Step() bool {
	for len(e.heap) > 0 {
		it := e.heap.pop()
		if it.dead {
			e.recycle(it)
			continue
		}
		e.now = it.at
		fn := it.fn
		e.recycle(it)
		e.fired++
		fn(e.now)
		return true
	}
	return false
}

func (e *refEngine) Reset() {
	for _, it := range e.heap {
		e.recycle(it)
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.fired, e.stopped = 0, 0, 0, false
}

// --- differential harness ---

// Offsets around one wheel span.
const (
	opSlot Time = 1 << slotShift
	opSpan Time = wheelSlots * opSlot
)

// opEngine is the surface both engines share; the handles they return
// are boxed so one runner serves both.
type opEngine interface {
	Now() Time
	Fired() uint64
	Pending() int
	NextAt() (Time, bool)
	Run(Time) Time
	Step() bool
	Reset()
	Stop()
	schedule(at Time, after bool, fn Event) opHandle
}

type opHandle interface {
	Cancel() bool
	Pending() bool
}

type newSide struct{ *Engine }

func (s newSide) schedule(at Time, after bool, fn Event) opHandle {
	if after {
		return s.After(at-s.Now(), fn)
	}
	return s.At(at, fn)
}

type refSide struct{ *refEngine }

func (s refSide) schedule(at Time, after bool, fn Event) opHandle {
	if after {
		return s.After(at-s.Now(), fn)
	}
	return s.At(at, fn)
}

// opEvent is what a scheduled callback does when it fires. Every field is
// decoded once from the op stream and handed to both runners, so two
// engines that fire in the same order run the same callbacks.
type opEvent struct {
	child  Time // offset of a child event scheduled on firing; <0 none
	depth  int  // how many generations of children follow
	cancel int  // index of a handle cancelled on firing; <0 none
	stop   bool // call Stop on firing
}

type firing struct {
	at Time
	id int
}

// opRunner runs one engine through the op stream and records what fired.
type opRunner struct {
	eng    opEngine
	log    []firing
	hs     []opHandle
	ats    []Time
	nextID int
}

// opEventBudget bounds the events one op stream may schedule, so child
// chains terminate.
const opEventBudget = 4000

func (d *opRunner) schedule(at Time, after bool, ev opEvent) {
	if d.nextID >= opEventBudget {
		return
	}
	id := d.nextID
	d.nextID++
	d.ats = append(d.ats, at)
	d.hs = append(d.hs, d.eng.schedule(at, after, func(now Time) {
		d.log = append(d.log, firing{now, id})
		if ev.stop {
			d.eng.Stop()
		}
		if ev.cancel >= 0 && ev.cancel < len(d.hs) {
			d.hs[ev.cancel].Cancel()
		}
		if ev.child >= 0 && ev.depth > 0 {
			next := ev
			next.depth--
			d.schedule(now+ev.child, id%2 == 0, next)
		}
	}))
}

// opStream decodes bytes into ops; an exhausted stream reads zeros.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) byte() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *opStream) u16() int { return s.byte()<<8 | s.byte() }

func (s *opStream) done() bool { return s.i >= len(s.b) }

// offset draws a distance ahead of now from the op alphabet: zero, the
// time of a pending event, <1 µs, 1–10 µs, 10–100 µs, one wheel span
// −1/±0/+1 slot (on and off a slot boundary), or milliseconds.
func (s *opStream) offset(now Time, ref *opRunner) Time {
	switch s.byte() % 9 {
	case 0:
		return 0
	case 1:
		if n := len(ref.hs); n > 0 {
			k := s.u16() % n
			if ref.hs[k].Pending() && ref.ats[k] >= now {
				return ref.ats[k] - now
			}
		}
		return 0
	case 2:
		return Time(s.u16() % 1000)
	case 3:
		return Microsecond + Time(s.u16()*137%int(9*Microsecond))
	case 4:
		return 10*Microsecond + Time(s.u16()*1373%int(90*Microsecond))
	case 5, 6, 7:
		k := s.byte()
		off := opSpan + Time(k%3-1)*opSlot
		if k&4 != 0 { // land on a slot boundary
			off -= (now + off) % opSlot
		}
		if k&8 != 0 {
			off += Time(k>>4) % opSlot
		}
		return off
	default:
		return Millisecond + Time(s.u16())*Microsecond/3
	}
}

func (s *opStream) event(now Time, ref *opRunner) opEvent {
	ev := opEvent{child: -1, cancel: -1}
	flags := s.byte()
	if flags&1 != 0 {
		ev.child = s.offset(now, ref)
		ev.depth = 1 + flags>>1&7
	}
	if flags&16 != 0 && len(ref.hs) > 0 {
		ev.cancel = s.u16() % (len(ref.hs) + 4)
	}
	ev.stop = flags&0xe0 == 0xe0
	return ev
}

// runOps drives a fresh Engine and a refEngine through the op stream in
// data and fails on the first difference in what fired, when, or in
// Now/Fired/Pending/NextAt.
func runOps(t testing.TB, data []byte) {
	s := &opStream{b: data}
	got := &opRunner{eng: newSide{New()}}
	want := &opRunner{eng: refSide{&refEngine{}}}
	both := []*opRunner{want, got}
	checked := 0
	for op := 0; !s.done(); op++ {
		now := want.eng.Now()
		var what string
		switch code := s.byte() % 64; {
		case code < 40: // At or After
			at := now + s.offset(now, want)
			ev := s.event(now, want)
			after := code&1 != 0
			what = fmt.Sprintf("schedule(%v, after=%v, %+v)", at, after, ev)
			for _, d := range both {
				d.schedule(at, after, ev)
			}
		case code < 46: // Cancel, live or stale
			if len(want.hs) == 0 {
				continue
			}
			k := s.u16() % len(want.hs)
			what = fmt.Sprintf("cancel(%d)", k)
			if a, b := want.hs[k].Cancel(), got.hs[k].Cancel(); a != b {
				t.Fatalf("op %d %s: Cancel = %v, reference %v", op, what, b, a)
			}
		case code < 54: // Run to a horizon, sometimes behind now
			h := now + s.offset(now, want)
			if code >= 52 {
				h = now - Time(s.byte())
			}
			what = fmt.Sprintf("run(%v)", h)
			if a, b := want.eng.Run(h), got.eng.Run(h); a != b {
				t.Fatalf("op %d %s: Run = %v, reference %v", op, what, b, a)
			}
		case code == 54:
			what = "run(MaxTime)"
			if a, b := want.eng.Run(MaxTime), got.eng.Run(MaxTime); a != b {
				t.Fatalf("op %d %s: Run = %v, reference %v", op, what, b, a)
			}
		case code < 63:
			what = "step"
			if a, b := want.eng.Step(), got.eng.Step(); a != b {
				t.Fatalf("op %d %s: Step = %v, reference %v", op, what, b, a)
			}
		default:
			what = "reset"
			for _, d := range both {
				d.eng.Reset()
			}
		}
		for i := checked; i < len(want.log) || i < len(got.log); i++ {
			if i >= len(want.log) || i >= len(got.log) || want.log[i] != got.log[i] {
				t.Fatalf("op %d %s: firing %d differs: got %v, reference %v",
					op, what, i, tail(got.log, i), tail(want.log, i))
			}
		}
		checked = len(want.log)
		if a, b := want.eng.Now(), got.eng.Now(); a != b {
			t.Fatalf("op %d %s: Now = %v, reference %v", op, what, b, a)
		}
		if a, b := want.eng.Fired(), got.eng.Fired(); a != b {
			t.Fatalf("op %d %s: Fired = %d, reference %d", op, what, b, a)
		}
		if a, b := want.eng.Pending(), got.eng.Pending(); a != b {
			t.Fatalf("op %d %s: Pending = %d, reference %d", op, what, b, a)
		}
		at1, ok1 := want.eng.NextAt()
		at2, ok2 := got.eng.NextAt()
		if at1 != at2 || ok1 != ok2 {
			t.Fatalf("op %d %s: NextAt = %v,%v, reference %v,%v", op, what, at2, ok2, at1, ok1)
		}
	}
}

func tail(log []firing, i int) []firing {
	if i >= len(log) {
		return nil
	}
	return log[i:min(len(log), i+3)]
}

func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestEngineMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		data := randomOps(seed, 1500)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runOps(t, data) })
	}
}

func FuzzEngineSchedule(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randomOps(seed, 256))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
