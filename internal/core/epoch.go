package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"qvisor/internal/pkt"
)

// Epoch is one immutable published policy generation: the joint policy,
// its rewrite table (the one the synthesizer laid out, or compiled once at
// publish for a policy it did not lay out), an optional deployment, and an
// in-flight packet refcount. Everything except the refcount is frozen at
// publish time; readers never see a partially-updated epoch (the store
// swaps whole *Epoch pointers).
type Epoch struct {
	// Gen is the generation number, strictly increasing across publishes.
	Gen uint64
	// Policy is the joint policy of this generation.
	Policy *JointPolicy
	// Deployment is the scheduler compiled for this generation, when the
	// publisher deploys (nil otherwise). Note the scheduler instance
	// itself is stateful; the sim decides whether to swap it in.
	Deployment *Deployment

	tab    *flatTable
	action UnknownTenantAction

	// inflight is the one field written after publish, by every reader at
	// every pin and unpin; the pads keep it alone on its cache line, so a
	// writer handed the epoch's heap neighbour does not stall on that traffic.
	_        [cacheLine - 8]byte
	inflight atomic.Int64
	_        [cacheLine - 8]byte
}

const cacheLine = 64

// Inflight returns the number of packets currently pinned to this epoch
// (acquired at the pre-processing point, released at delivery or drop).
func (e *Epoch) Inflight() int64 { return e.inflight.Load() }

// Process rewrites p.Rank under this epoch's joint policy: the rewrite
// kernel without a stage, so it is read-only and any number of data-plane
// readers can call it concurrently. It returns false if the packet must be
// dropped (unknown tenant under UnknownDrop).
func (e *Epoch) Process(p *pkt.Packet) bool {
	one := [1]*pkt.Packet{p}
	return e.tab.rewrite(one[:], e.action, nil) == 1
}

// Preprocessor returns a new pre-processor executing this generation — the
// same compiled table with its own statistics. Pin moves it to a later
// generation.
func (e *Epoch) Preprocessor() *Preprocessor { return newPreprocessor(e.tab, e.action, nil) }

// EpochInfo is a read-only snapshot of one epoch's state.
type EpochInfo struct {
	// Gen is the epoch's generation number.
	Gen uint64 `json:"gen"`
	// Inflight is the pinned-packet count at snapshot time.
	Inflight int64 `json:"inflight"`
}

// EpochGenerations is a consistent snapshot of the store: the current
// epoch, every epoch still draining in-flight packets, and the lifetime
// publish count.
type EpochGenerations struct {
	// Current is the live epoch (nil before the first publish).
	Current *EpochInfo `json:"current,omitempty"`
	// Draining lists superseded epochs with packets still in flight,
	// ascending by generation.
	Draining []EpochInfo `json:"draining,omitempty"`
	// Published is the total number of epochs ever published.
	Published uint64 `json:"published"`
}

// EpochStore publishes policy generations RCU-style: writers build a
// complete immutable Epoch and swap it in with one atomic pointer store;
// readers pin the epoch they started under with Acquire and keep using
// its transforms until Release, so a packet never observes a mix of two
// generations mid-flight. Superseded epochs are kept in a draining set
// until their in-flight count returns to zero.
//
// The data-plane path (Current/Acquire/Release fast path) is lock-free;
// Publish and the draining-set bookkeeping take a mutex, which is fine at
// control-plane rates.
type EpochStore struct {
	action UnknownTenantAction
	cur    atomic.Pointer[Epoch]

	mu        sync.Mutex
	draining  map[uint64]*Epoch
	published uint64
}

// NewEpochStore returns an empty store. Epochs published through it
// handle unknown tenants with the given action (matching the runtime
// controller's pre-processor so both paths agree).
func NewEpochStore(action UnknownTenantAction) *EpochStore {
	return &EpochStore{action: action, draining: make(map[uint64]*Epoch)}
}

// Publish installs a new generation built from jp (and an optional
// deployment) and returns it. The previous epoch moves to the draining
// set until its in-flight packets finish. Generation numbers follow
// jp.Version when it keeps them strictly increasing, and self-increment
// otherwise (e.g. policies synthesized outside the controller).
func (s *EpochStore) Publish(jp *JointPolicy, d *Deployment) *Epoch {
	tab := jp.table()
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur.Load()
	prevGen := uint64(0)
	if prev != nil {
		prevGen = prev.Gen
	}
	gen := jp.Version
	if gen == 0 || gen <= prevGen {
		gen = prevGen + 1
	}
	e := &Epoch{Gen: gen, Policy: jp, Deployment: d, tab: tab, action: s.action}
	s.cur.Store(e)
	s.published++
	if prev != nil && prev.Inflight() > 0 {
		s.draining[prev.Gen] = prev
	}
	// Lazy sweep: drop drained epochs whose last packet released while
	// they sat in the set.
	for g, old := range s.draining {
		if old.Inflight() <= 0 {
			delete(s.draining, g)
		}
	}
	return e
}

// Current returns the live epoch without pinning it (nil before the
// first publish). Use Acquire for per-packet reads.
func (s *EpochStore) Current() *Epoch { return s.cur.Load() }

// Acquire pins the live epoch for one in-flight packet and returns it
// (nil before the first publish). The caller must pair it with
// Release(e.Gen) when the packet leaves the data plane — delivered or
// dropped — so superseded epochs can finish draining.
func (s *EpochStore) Acquire() *Epoch {
	e := s.cur.Load()
	if e == nil {
		return nil
	}
	e.inflight.Add(1)
	// A Publish may have swapped cur between the load and the Add; that
	// is fine — the packet is correctly pinned to the epoch it read, which
	// Publish either already moved to draining (sweep finds the count) or
	// is about to (Inflight() > 0 keeps it there).
	return e
}

// Release unpins one packet from generation gen. Unknown generations are
// ignored (a packet acquired before the store existed, or a double
// release — both benign).
func (s *EpochStore) Release(gen uint64) {
	if e := s.cur.Load(); e != nil && e.Gen == gen {
		e.inflight.Add(-1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// cur may have changed between the fast-path load and taking the
	// lock; re-check both places.
	if e := s.cur.Load(); e != nil && e.Gen == gen {
		e.inflight.Add(-1)
		return
	}
	if e, ok := s.draining[gen]; ok {
		if e.inflight.Add(-1) <= 0 {
			delete(s.draining, gen)
		}
	}
}

// Generations returns a snapshot of the store's state.
func (s *EpochStore) Generations() EpochGenerations {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := EpochGenerations{Published: s.published}
	if e := s.cur.Load(); e != nil {
		out.Current = &EpochInfo{Gen: e.Gen, Inflight: e.Inflight()}
	}
	for _, e := range s.draining {
		if e.Inflight() > 0 {
			out.Draining = append(out.Draining, EpochInfo{Gen: e.Gen, Inflight: e.Inflight()})
		}
	}
	sort.Slice(out.Draining, func(i, j int) bool { return out.Draining[i].Gen < out.Draining[j].Gen })
	return out
}

// Draining returns the number of superseded epochs still holding
// in-flight packets.
func (s *EpochStore) Draining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.draining {
		if e.Inflight() > 0 {
			n++
		}
	}
	return n
}
