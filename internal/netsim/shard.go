package netsim

import (
	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

// partition describes one shard's slice of the leaf-spine topology. The
// partition function is static: shard i owns the contiguous leaf block
// [i*Leaves/Shards, (i+1)*Leaves/Shards) together with those leaves'
// hosts (so access links never cross shards), and every spine s with
// s % Shards == i (so fabric load spreads across shards). Every
// cross-shard link is a fabric link, whose propagation delay is the
// conservative lookahead of the parallel run.
type partition struct {
	shard, shards int
	// leafOwner and spineOwner map device index to owning shard.
	leafOwner  []int
	spineOwner []int
	// handoff forwards a packet whose serialization just finished on a
	// port that transmits to another shard: at is the arrival time (tx
	// end + PropDelay), link the global directed-link id, dst the
	// receiving shard. The cluster points it at the coordinator.
	handoff func(at sim.Time, link uint64, dst int, p *pkt.Packet)
}

// ownsLeaf reports whether this shard owns leaf li. A nil partition (the
// single-threaded build) owns everything.
func (pt *partition) ownsLeaf(li int) bool {
	return pt == nil || pt.leafOwner[li] == pt.shard
}

// ownsSpine reports whether this shard owns spine si.
func (pt *partition) ownsSpine(si int) bool {
	return pt == nil || pt.spineOwner[si] == pt.shard
}

// makeOwners builds the leaf and spine ownership maps for a shard count.
func makeOwners(cfg *Config, shards int) (leafOwner, spineOwner []int) {
	leafOwner = make([]int, cfg.Leaves)
	for i := 0; i < shards; i++ {
		for li := i * cfg.Leaves / shards; li < (i+1)*cfg.Leaves/shards; li++ {
			leafOwner[li] = i
		}
	}
	spineOwner = make([]int, cfg.Spines)
	for si := range spineOwner {
		spineOwner[si] = si % shards
	}
	return leafOwner, spineOwner
}

// Global directed-link ids for the fabric. Leaf->spine links occupy
// [0, Leaves*Spines), spine->leaf links [Leaves*Spines, 2*Leaves*Spines).
// They are dense, so per-link state lives in plain slices, and stable, so
// sorting barrier messages by link id is deterministic across runs.

func linkLeafSpine(cfg *Config, li, si int) uint64 {
	return uint64(li*cfg.Spines + si)
}

func linkSpineLeaf(cfg *Config, si, li int) uint64 {
	return uint64(cfg.Leaves*cfg.Spines + si*cfg.Leaves + li)
}

// inboundRing is the arrival side of one cross-shard link: a FIFO of
// handed-off packets plus one persistent engine event that delivers the
// head. Injection pushes the packet and schedules fire at the message
// timestamp — no per-packet closure, so cross-shard arrivals keep the
// zero-allocation budget. FIFO order is safe because a link's messages
// are injected in (At, Seq) order and the engine breaks timestamp ties by
// insertion order.
type inboundRing struct {
	ring pkt.Ring
	fire sim.Event
}

// armInbound prepares the arrival ring of one receiving link.
func (n *Network) armInbound(link uint64, deliver func(sim.Time, *pkt.Packet)) {
	r := &n.inbound[link]
	r.fire = func(now sim.Time) {
		deliver(now, r.ring.Pop())
	}
}

// inject turns one coordinator message into a local arrival. It runs on
// the shard's goroutine between windows, in the deterministic global
// merge order; the pool adopts the packet here, completing the ownership
// transfer the sender's Lend opened.
func (n *Network) inject(m sim.Message) {
	p := m.Data.(*pkt.Packet)
	n.pool.Adopt(p)
	r := &n.inbound[m.Link]
	if r.fire == nil {
		panic("netsim: cross-shard message on a link this shard does not receive")
	}
	r.ring.Push(p)
	n.eng.At(m.At, r.fire)
}
