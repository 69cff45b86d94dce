// Package pifotree implements the PIFO-tree abstraction of Sivaraman et
// al., "Programmable Packet Scheduling at Line Rate" (SIGCOMM 2016) —
// reference [32] of the QVISOR paper, and the §5 direction "recent research
// has proposed more complex abstractions such as PIFO trees ... with them,
// tenants can specify hierarchical and non-work-conserving scheduling
// algorithms".
//
// A PIFO tree is a tree of PIFO nodes. Every enqueue classifies the packet
// to a leaf and pushes one element into each PIFO on the root-to-leaf
// path: interior nodes hold references to their children ordered by the
// node's scheduling transaction; the leaf holds the packet itself.
// Dequeue pops the root to select a child, then that child's PIFO, and so
// on until a packet emerges. Hierarchies like HPFQ (fair queuing between
// groups, fair queuing within each group) fall out naturally.
//
// The tree implements sched.Scheduler, so it can serve as the egress
// discipline of a simulated switch port or as a tenant-internal hierarchy
// inside a QVISOR band.
package pifotree

import (
	"fmt"

	"qvisor/internal/pkt"
	"qvisor/internal/pq"
	"qvisor/internal/sched"
)

// Transaction computes the rank an element receives in a node's PIFO: the
// node's "scheduling transaction" in PIFO-tree terminology. For interior
// nodes the element represents the child subtree the packet descends into;
// for leaves it is the packet itself. Lower ranks dequeue first.
type Transaction func(p *pkt.Packet) int64

// FIFOTransaction ranks every element equally: arrival order.
func FIFOTransaction(*pkt.Packet) int64 { return 0 }

// Classifier maps a packet to the name of the leaf it joins.
type Classifier func(p *pkt.Packet) string

// node is one PIFO in the tree, keyed by the node's transaction.
type node struct {
	name     string
	tx       Transaction
	onPop    func(rank int64) // virtual-time hook for fair transactions
	children map[string]*node // nil at a leaf
	h        pq.Heap[slot]
	seq      uint64
}

// slot is what a node's PIFO holds: the packet at a leaf, the child the
// packet descends into at an interior node.
type slot struct {
	p     *pkt.Packet
	child *node
}

func (n *node) push(rank int64, s slot) {
	n.h.Push(pq.Entry[slot]{Key: rank, Seq: n.seq, Val: s})
	n.seq++
}

// Tree is a PIFO tree. Build one with NewTree and AddLeaf/AddInterior,
// then use it as a sched.Scheduler.
type Tree struct {
	cfg      sched.Config
	classify Classifier
	root     *node
	nodes    map[string]*node
	leaves   map[string]*node
	paths    map[string][]*node
	bytes    int
	count    int
	stats    sched.Stats
}

// NewTree returns a tree whose root orders its children with rootTx.
// classify assigns packets to leaves; packets classified to unknown leaves
// are dropped.
func NewTree(cfg sched.Config, rootTx Transaction, classify Classifier) *Tree {
	if rootTx == nil {
		rootTx = FIFOTransaction
	}
	if classify == nil {
		classify = func(*pkt.Packet) string { return "" }
	}
	root := &node{name: "root", tx: rootTx, children: make(map[string]*node)}
	return &Tree{
		cfg:      cfg,
		classify: classify,
		root:     root,
		nodes:    map[string]*node{"root": root},
		leaves:   make(map[string]*node),
		paths:    make(map[string][]*node),
	}
}

// AddInterior adds an interior node under parent, ordering its own
// children with tx. Parent must exist and not be a leaf.
func (t *Tree) AddInterior(parent, name string, tx Transaction) error {
	return t.add(parent, name, tx, false)
}

// AddLeaf adds a leaf node under parent, ordering its packets with tx.
func (t *Tree) AddLeaf(parent, name string, tx Transaction) error {
	return t.add(parent, name, tx, true)
}

func (t *Tree) add(parent, name string, tx Transaction, leaf bool) error {
	p, ok := t.nodes[parent]
	if !ok {
		return fmt.Errorf("pifotree: unknown parent %q", parent)
	}
	if _, isLeaf := t.leaves[parent]; isLeaf {
		return fmt.Errorf("pifotree: parent %q is a leaf", parent)
	}
	if _, dup := t.nodes[name]; dup {
		return fmt.Errorf("pifotree: duplicate node %q", name)
	}
	if tx == nil {
		tx = FIFOTransaction
	}
	n := &node{name: name, tx: tx}
	if !leaf {
		n.children = make(map[string]*node)
	}
	p.children[name] = n
	t.nodes[name] = n
	if leaf {
		t.leaves[name] = n
	}
	return nil
}

// path returns the root-to-leaf chain for a leaf name, cached after the
// first lookup (the topology is append-only).
func (t *Tree) path(leaf string) []*node {
	if chain, ok := t.paths[leaf]; ok {
		return chain
	}
	var chain []*node
	var walk func(n *node) bool
	walk = func(n *node) bool {
		chain = append(chain, n)
		if n.name == leaf {
			return true
		}
		for _, c := range n.children {
			if walk(c) {
				return true
			}
		}
		chain = chain[:len(chain)-1]
		return false
	}
	if !walk(t.root) {
		return nil
	}
	t.paths[leaf] = chain
	return chain
}

// Name implements sched.Scheduler.
func (t *Tree) Name() string { return "pifotree" }

// Len implements sched.Scheduler.
func (t *Tree) Len() int { return t.count }

// Bytes implements sched.Scheduler.
func (t *Tree) Bytes() int { return t.bytes }

// Stats returns a snapshot of the counters.
func (t *Tree) Stats() sched.Stats { return t.stats }

// Enqueue implements sched.Scheduler: classify to a leaf, then push one
// element into every PIFO on the root-to-leaf path.
func (t *Tree) Enqueue(p *pkt.Packet) bool {
	cap := t.cfg.CapacityBytes
	if cap <= 0 {
		cap = sched.DefaultCapacityBytes
	}
	leafName := t.classify(p)
	leaf, ok := t.leaves[leafName]
	if !ok || t.bytes+p.Size > cap {
		t.stats.Dropped++
		if t.cfg.OnDrop != nil {
			// A packet classified to a leaf the tree does not have was
			// rejected by policy, not by buffer pressure.
			cause := sched.CauseOverflow
			if !ok {
				cause = sched.CauseAdmission
			}
			t.cfg.OnDrop(p, cause)
		}
		return false
	}
	chain := t.path(leafName)
	// Interior pushes: each node receives a reference to the next node
	// down, ranked by its own transaction.
	for i := 0; i < len(chain)-1; i++ {
		chain[i].push(chain[i].tx(p), slot{child: chain[i+1]})
	}
	leaf.push(leaf.tx(p), slot{p: p})
	t.bytes += p.Size
	t.count++
	t.stats.Enqueued++
	return true
}

// Dequeue implements sched.Scheduler: pop the root to choose a subtree,
// descend popping each chosen node until a packet emerges.
func (t *Tree) Dequeue() *pkt.Packet {
	n := t.root
	for len(n.h) > 0 {
		e := n.h.Pop()
		if n.onPop != nil {
			n.onPop(e.Key)
		}
		if p := e.Val.p; p != nil {
			t.bytes -= p.Size
			t.count--
			t.stats.Dequeued++
			return p
		}
		n = e.Val.child
	}
	return nil
}

// Reset implements sched.Scheduler: every node's PIFO is emptied (heap
// slices kept warm) and the counters zeroed. The topology and path cache
// survive. State held outside the tree — e.g. the virtual time and finish
// tags inside FairTx closures — is NOT reset; callers needing a pristine
// fair-queuing state must rebuild those transactions.
func (t *Tree) Reset() {
	for _, n := range t.nodes {
		n.h.Reset()
		n.seq = 0
	}
	t.bytes = 0
	t.count = 0
	t.stats = sched.Stats{}
}

// SetPopHook attaches a virtual-time hook to a node: it observes the rank
// of every element popped from that node's PIFO. Fair transactions use it
// to advance their virtual time.
func (t *Tree) SetPopHook(name string, hook func(rank int64)) error {
	n, ok := t.nodes[name]
	if !ok {
		return fmt.Errorf("pifotree: unknown node %q", name)
	}
	n.onPop = hook
	return nil
}

// FairTx returns a start-time-fair-queuing transaction plus its pop hook:
// elements of the same key receive increasing start tags spaced by
// size/weight, and the hook advances the virtual time so newly active keys
// join at the current service point instead of the distant past. Attach
// the hook to the same node with SetPopHook.
func FairTx(keyOf func(*pkt.Packet) uint64, weightOf func(*pkt.Packet) float64) (Transaction, func(int64)) {
	vtime := new(int64)
	finish := make(map[uint64]int64)
	tx := func(p *pkt.Packet) int64 {
		key := keyOf(p)
		start := *vtime
		if f, ok := finish[key]; ok && f > start {
			start = f
		}
		w := 1.0
		if weightOf != nil {
			if got := weightOf(p); got > 0 {
				w = got
			}
		}
		finish[key] = start + int64(float64(p.Size)/w)
		return start
	}
	hook := func(rank int64) {
		if rank > *vtime {
			*vtime = rank
		}
	}
	return tx, hook
}

// NewHPFQ builds the classic two-level hierarchical fair-queuing tree
// (HPFQ): fair sharing between the named groups at the root, and fair
// sharing among flows within each group. groupOf maps packets to group
// names; unknown groups are dropped.
func NewHPFQ(cfg sched.Config, groups []string, groupOf func(*pkt.Packet) string) (*Tree, error) {
	rootTx, rootHook := FairTx(func(p *pkt.Packet) uint64 {
		return hashString(groupOf(p))
	}, nil)
	t := NewTree(cfg, rootTx, groupOf)
	if err := t.SetPopHook("root", rootHook); err != nil {
		return nil, err
	}
	for _, g := range groups {
		tx, hook := FairTx(func(p *pkt.Packet) uint64 { return p.Flow }, nil)
		if err := t.AddLeaf("root", g, tx); err != nil {
			return nil, err
		}
		if err := t.SetPopHook(g, hook); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func hashString(s string) uint64 {
	// FNV-1a, inlined to keep the hot path allocation-free.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
