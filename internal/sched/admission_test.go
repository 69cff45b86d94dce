package sched

import (
	"math/rand"
	"testing"

	"qvisor/internal/pkt"
)

// The admission backend's contract, pinned by the tests below:
//
//   - dynamic per-queue bounds stay monotone non-decreasing after every
//     operation (they are quantiles of one sorted window by construction);
//   - conservation: every offered packet is either dequeued or reported
//     through exactly one drop callback — never both, never neither;
//   - cold start and no-pressure operation are FIFO-equivalent, like AIFO;
//   - admission rejections report CauseAdmission, buffer rejections
//     CauseOverflow;
//   - the steady-state hot path allocates nothing (TestAllocBudgetSchedulers
//     and TestResetRoundTrip cover this via resetCases).

// TestAdmissionBoundMonotone: after every enqueue and dequeue the dynamic
// bounds must satisfy bounds[0] <= bounds[1] <= ... <= bounds[n-1].
func TestAdmissionBoundMonotone(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewAdmission(AdmissionConfig{
			Config:      Config{CapacityBytes: 64 * 1500},
			Queues:      8,
			UpdateEvery: 1 + int(seed)%4, // cover several refresh cadences
		})
		check := func(step int) {
			for i := 0; i+1 < q.NumQueues(); i++ {
				if q.Bound(i) > q.Bound(i+1) {
					t.Fatalf("seed %d step %d: bounds not monotone: q%d=%d > q%d=%d",
						seed, step, i, q.Bound(i), i+1, q.Bound(i+1))
				}
			}
		}
		for step := 0; step < 5000; step++ {
			if rng.Intn(3) != 0 || q.Len() == 0 {
				q.Enqueue(&pkt.Packet{ID: uint64(step), Rank: rng.Int63n(1 << 16), Size: 100})
			} else {
				q.Dequeue()
			}
			check(step)
		}
	}
}

// TestAdmissionConservationAndSingleCallback: on a workload heavy enough to
// force both overflow and admission drops, (dequeued + dropped) must equal
// offered, every dropped ID must be distinct (one callback per packet), and
// no ID may be both dequeued and dropped.
func TestAdmissionConservationAndSingleCallback(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dropped := make(map[uint64]DropCause)
		drops := 0
		q := NewAdmission(AdmissionConfig{
			Config: Config{
				CapacityBytes: 16 * 1500, // tight: real admission pressure
				OnDrop: func(p *pkt.Packet, cause DropCause) {
					if _, dup := dropped[p.ID]; dup {
						t.Fatalf("seed %d: packet %d dropped twice", seed, p.ID)
					}
					dropped[p.ID] = cause
					drops++
				},
			},
		})
		const offered = 5000
		dequeued := make(map[uint64]bool)
		serve := func() {
			p := q.Dequeue()
			if p == nil {
				return
			}
			if dequeued[p.ID] {
				t.Fatalf("seed %d: packet %d dequeued twice", seed, p.ID)
			}
			if _, alsoDropped := dropped[p.ID]; alsoDropped {
				t.Fatalf("seed %d: packet %d both dequeued and dropped", seed, p.ID)
			}
			dequeued[p.ID] = true
		}
		for i := 0; i < offered; i++ {
			p := &pkt.Packet{ID: uint64(i), Rank: rng.Int63n(1 << 16), Size: 200 + rng.Intn(1300)}
			ok := q.Enqueue(p)
			if !ok {
				if _, reported := dropped[p.ID]; !reported {
					t.Fatalf("seed %d: Enqueue returned false without a drop callback for %d", seed, p.ID)
				}
			}
			if rng.Intn(3) == 0 {
				serve()
			}
		}
		for q.Len() > 0 {
			serve()
		}
		if got := len(dequeued) + drops; got != offered {
			t.Fatalf("seed %d: dequeued %d + dropped %d != offered %d",
				seed, len(dequeued), drops, offered)
		}
		if drops == 0 {
			t.Fatalf("seed %d: workload produced no drops; the test is not exercising admission", seed)
		}
		st := q.Stats()
		if st.Dropped != uint64(drops) {
			t.Fatalf("seed %d: Stats.Dropped=%d, callbacks=%d", seed, st.Dropped, drops)
		}
	}
}

// TestAdmissionDropCauses: a rank-based rejection with buffer headroom must
// report CauseAdmission; a rejection for lack of space CauseOverflow.
func TestAdmissionDropCauses(t *testing.T) {
	var causes []DropCause
	q := NewAdmission(AdmissionConfig{
		Config: Config{
			CapacityBytes: 10 * 1000,
			OnDrop:        func(p *pkt.Packet, cause DropCause) { causes = append(causes, cause) },
		},
		WindowSize: 8,
		Burst:      0.1,
	})
	// Warm the window with rank-0 traffic and fill most of the buffer.
	for i := 0; i < 9; i++ {
		if !q.Enqueue(mkpkt(0, 1000)) {
			t.Fatalf("warmup enqueue %d refused", i)
		}
	}
	if !q.Warm() {
		t.Fatal("window not warm after filling")
	}
	// 9000/10000 bytes used: headroom 0.1, admissible quantile 0.111. A
	// maximal rank is above every windowed rank (quantile 1.0) -> admission.
	if q.Enqueue(mkpkt(1<<20, 500)) {
		t.Fatal("poor-rank packet admitted under admission pressure")
	}
	if len(causes) != 1 || causes[0] != CauseAdmission {
		t.Fatalf("causes = %v, want [admission]", causes)
	}
	// A best-rank packet (quantile 0) passes admission but cannot fit.
	if q.Enqueue(mkpkt(-1, 2000)) {
		t.Fatal("oversized packet admitted")
	}
	if len(causes) != 2 || causes[1] != CauseOverflow {
		t.Fatalf("causes = %v, want [admission overflow]", causes)
	}
}

// TestAdmissionNoPressureIsFIFO: with a huge buffer the admission rule
// never fires and — while the traffic keeps the dynamic bounds ahead of it
// — a cold-start Admission behaves as a FIFO: before the window fills,
// everything maps to queue 0 in arrival order.
func TestAdmissionNoPressureIsFIFO(t *testing.T) {
	q := NewAdmission(AdmissionConfig{
		Config:     Config{CapacityBytes: 1 << 30},
		WindowSize: 64,
	})
	rng := rand.New(rand.NewSource(7))
	var want []uint64
	for i := 0; i < 63; i++ { // one short of warm: pure cold start
		p := &pkt.Packet{ID: uint64(i), Rank: rng.Int63n(1 << 16), Size: 100}
		if !q.Enqueue(p) {
			t.Fatalf("no-pressure enqueue %d refused", i)
		}
		want = append(want, p.ID)
	}
	if q.Warm() {
		t.Fatal("window warm too early")
	}
	for i, id := range want {
		p := q.Dequeue()
		if p == nil || p.ID != id {
			t.Fatalf("dequeue %d: got %v, want ID %d (cold start must be FIFO)", i, p, id)
		}
	}
}

// TestAdmissionNeverDropsWithoutPressure: at effectively infinite capacity
// the headroom fraction stays ~1 and the admission quantile test can never
// fail, so no packet may be dropped regardless of its rank.
func TestAdmissionNeverDropsWithoutPressure(t *testing.T) {
	drops := 0
	q := NewAdmission(AdmissionConfig{
		Config: Config{
			CapacityBytes: 1 << 30,
			OnDrop:        func(*pkt.Packet, DropCause) { drops++ },
		},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if !q.Enqueue(&pkt.Packet{ID: uint64(i), Rank: rng.Int63n(1 << 30), Size: 1500}) {
			t.Fatalf("enqueue %d refused with no buffer pressure", i)
		}
		if rng.Intn(2) == 0 {
			q.Dequeue()
		}
	}
	if drops != 0 {
		t.Fatalf("dropped %d packets with no admission pressure", drops)
	}
}

// TestAdmissionStrictPriorityAcrossBands: once warm, a batch of low-rank
// and high-rank packets (well separated relative to the window) must leave
// strictly low band before high band — the queue mapping must realize the
// priority the dynamic bounds encode.
func TestAdmissionStrictPriorityAcrossBands(t *testing.T) {
	q := NewAdmission(AdmissionConfig{
		Config:      Config{CapacityBytes: 1 << 30},
		Queues:      4,
		WindowSize:  16,
		UpdateEvery: 1,
	})
	// Warm the window with an even mix so the quantile bands split at the
	// midpoint between the two rank populations.
	for i := 0; i < 16; i++ {
		r := int64(10)
		if i%2 == 1 {
			r = 1000
		}
		q.Enqueue(mkpkt(r, 100))
	}
	for q.Dequeue() != nil {
	}
	// Enqueue high-rank first, then low-rank: a FIFO would emit the high
	// ranks first; the admission backend must serve the low band first.
	for i := 0; i < 8; i++ {
		q.Enqueue(&pkt.Packet{ID: uint64(100 + i), Rank: 1000, Size: 100})
	}
	for i := 0; i < 8; i++ {
		q.Enqueue(&pkt.Packet{ID: uint64(200 + i), Rank: 10, Size: 100})
	}
	for i := 0; i < 8; i++ {
		p := q.Dequeue()
		if p == nil || p.Rank != 10 {
			t.Fatalf("dequeue %d: got %+v, want a rank-10 packet first", i, p)
		}
	}
	for i := 0; i < 8; i++ {
		p := q.Dequeue()
		if p == nil || p.Rank != 1000 {
			t.Fatalf("dequeue %d: got %+v, want the rank-1000 band last", 8+i, p)
		}
	}
}

// TestAdmissionRegistry: both registry spellings construct the backend.
func TestAdmissionRegistry(t *testing.T) {
	s, err := New("admission", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "admission8" {
		t.Fatalf("Name() = %q, want admission8", s.Name())
	}
	s, err = New("admission:4", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "admission4" {
		t.Fatalf("Name() = %q, want admission4", s.Name())
	}
	if _, err := New("admission:x", Config{}); err == nil {
		t.Fatal("admission:x accepted")
	}
	if _, err := New("admission:0", Config{}); err == nil {
		t.Fatal("admission:0 accepted")
	}
}
