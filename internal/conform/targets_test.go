package conform

import (
	"math/rand"
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
)

// TestTargetTable checks what the table feeds into other code: every row
// whose monotone step reads queue bounds builds a scheduler that has them,
// and the scoreboard's rows parse as deployment backends.
func TestTargetTable(t *testing.T) {
	sc, err := GenScenario(0, rand.New(rand.NewSource(scenarioSeed(1, 0))), 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range targets {
		tg := &targets[i]
		if tg.monotone == "" {
			continue
		}
		s, err := tg.build(sc, sched.Config{CapacityBytes: hugeCapacity})
		if err != nil {
			t.Fatalf("%s: %v", tg.name, err)
		}
		if _, ok := s.(queueBounds); !ok {
			t.Errorf("%s: monotone step on a scheduler without queue bounds", tg.name)
		}
	}
	// Profiles reads the scoreboard's rows as deployment backends; only
	// DRR, which realizes fair sharing rather than rank order, has none.
	for _, name := range ReplayBackendNames() {
		if _, err := core.ParseBackend(name); (err == nil) == (name == "drr") {
			t.Errorf("scored row %q: ParseBackend err = %v", name, err)
		}
	}
}

// TestSelectTargets: both sweeps select in table order whatever order the
// names come in, the replay sweep offers only the scored rows, and an
// unknown name is reported deterministically — the first one given.
func TestSelectTargets(t *testing.T) {
	got, err := selectTargets([]string{" admission", "fifo ", "pifo"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if names := strings.Join(targetNames(got), ","); names != "pifo,fifo,admission" {
		t.Errorf("selected %s, want table order pifo,fifo,admission", names)
	}
	if _, err := selectTargets([]string{"pifotree"}, true); err == nil ||
		!strings.Contains(err.Error(), `"pifotree"`) || strings.Contains(err.Error(), "pifo-tight") {
		t.Errorf("replay selection of a differential-only row: err = %v", err)
	}
	for i := 0; i < 20; i++ {
		_, err := selectTargets([]string{"fifo", "nope1", "nope2"}, false)
		if err == nil || !strings.Contains(err.Error(), `"nope1"`) {
			t.Fatalf("err = %v, want the first unknown name", err)
		}
	}
	if all, _ := selectTargets([]string{"all"}, true); len(all) != len(ReplayBackendNames()) {
		t.Errorf("\"all\" selected %d replay rows, want %d", len(all), len(ReplayBackendNames()))
	}
}

// TestContractsCatchMutants breaks every row on purpose and requires its
// contract to say so:
//   - swapping consecutive dequeues breaks every exact row's order clause
//     and the quantized rows' batch drains;
//   - silently losing a packet is a conservation violation on every row;
//   - swapping an approximation for a rank-blind FIFO trips its drift
//     ceiling.
func TestContractsCatchMutants(t *testing.T) {
	opts := Options{Scenarios: aggregateDriftFloor, Seed: 3}.defaults()
	if testing.Short() {
		opts.MaxPackets = 300
	}
	mutate := func(wrap func(sched.Scheduler) sched.Scheduler) []*target {
		var out []*target
		for i := range targets {
			m := targets[i]
			build := m.build
			m.build = func(sc *Scenario, cfg sched.Config) (sched.Scheduler, error) {
				s, err := build(sc, cfg)
				if err != nil {
					return nil, err
				}
				return wrap(s), nil
			}
			m.monotone = "" // the wrapper hides the queue bounds
			out = append(out, &m)
		}
		return out
	}
	caught := func(r *Report, name string, kinds ...ViolationKind) bool {
		for _, v := range r.Violations {
			for _, k := range kinds {
				if v.Backend == name && v.Kind == k {
					return true
				}
			}
		}
		return false
	}

	swapped := run(opts, mutate(func(s sched.Scheduler) sched.Scheduler { return &swapDequeues{Scheduler: s} }))
	for _, tg := range targets {
		if tg.ceiling == 0 && !caught(swapped, tg.name, ViolationExactOrder, ViolationArrivalOrder, ViolationDropMismatch) {
			t.Errorf("%s: swapped dequeues went unnoticed", tg.name)
		}
	}
	// The quantized approximations' batch drains are exact up to
	// quantization, so a swap across two buckets breaks them too.
	for name, kind := range map[string]ViolationKind{"calendar": ViolationCalendarOrder, "bucketq": ViolationBucketQOrder} {
		if !caught(swapped, name, kind) {
			t.Errorf("%s: swapped dequeues passed the batch drain", name)
		}
	}

	leaky := run(opts, mutate(func(s sched.Scheduler) sched.Scheduler { return &loseEvery{Scheduler: s, n: 50} }))
	for _, tg := range targets {
		if !caught(leaky, tg.name, ViolationConservation) {
			t.Errorf("%s: a lost packet went unnoticed", tg.name)
		}
	}

	blind := []*target{targetNamed("fifo")}
	for i := range targets {
		if m := targets[i]; m.ceiling != 0 {
			m.build = targetNamed("fifo").build
			m.monotone = ""
			m.contract = nil
			blind = append(blind, &m)
		}
	}
	r := run(opts, blind)
	for _, tg := range blind[1:] {
		drift := false
		for _, v := range r.Violations {
			drift = drift || (v.Backend == tg.name && v.Scenario == -1 && v.Kind == ViolationInversionBound)
		}
		if !drift {
			t.Errorf("%s: a rank-blind FIFO stayed under its %.2f× drift ceiling", tg.name, tg.ceiling)
		}
	}
}

// swapDequeues hands out each pair of consecutive dequeues in reverse.
type swapDequeues struct {
	sched.Scheduler
	held *pkt.Packet
}

func (s *swapDequeues) Dequeue() *pkt.Packet {
	if p := s.held; p != nil {
		s.held = nil
		return p
	}
	p := s.Scheduler.Dequeue()
	if q := s.Scheduler.Dequeue(); q != nil {
		s.held = p
		return q
	}
	return p
}

func (s *swapDequeues) Len() int {
	if s.held != nil {
		return s.Scheduler.Len() + 1
	}
	return s.Scheduler.Len()
}

// loseEvery drops every n-th dequeued packet on the floor, with no drop
// callback.
type loseEvery struct {
	sched.Scheduler
	n, count int
}

func (s *loseEvery) Dequeue() *pkt.Packet {
	if s.count++; s.count%s.n == 0 {
		s.Scheduler.Dequeue()
	}
	return s.Scheduler.Dequeue()
}
