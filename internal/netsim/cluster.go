package netsim

import (
	"fmt"
	"sort"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
)

// Sim is the common surface of the single-threaded Network and the
// sharded Cluster, so experiment harnesses run either from one Config.
type Sim interface {
	// Run executes the simulation to the horizon and drains in-flight
	// traffic, then publishes metrics (and, for a cluster, merges
	// per-shard results).
	Run()
	// FCTs returns the flow-completion records (for a cluster, merged
	// across shards in a deterministic order; valid after Run).
	FCTs() *stats.Collector
	// Counters returns the summed network-wide packet accounting.
	Counters() Counters
	// PortStats returns every port's telemetry in the global stable
	// order: host uplinks, then leaf ports, then spine ports.
	PortStats() []PortStats
	// Outstanding is the number of packets still inside the network,
	// summed over all packet pools — zero after a drained run.
	Outstanding() int
	// Close releases run resources (shard goroutines). Idempotent.
	Close()
}

// Build constructs the simulation the Config asks for: a sharded Cluster
// when Shards > 1, the single-threaded Network otherwise. The Shards <= 1
// path is byte-identical to calling New directly.
func Build(cfg Config) (Sim, error) {
	if cfg.Shards > 1 {
		return NewCluster(cfg)
	}
	return New(cfg)
}

// Metric families exported by a sharded run.
const (
	MetricShardWindows     = "qvisor_netsim_shard_windows_total"
	MetricShardMessages    = "qvisor_netsim_shard_messages_total"
	MetricShardBarrierWait = "qvisor_netsim_shard_barrier_wait_seconds"
	MetricShardBusy        = "qvisor_netsim_shard_busy_seconds"
	MetricShardChanMax     = "qvisor_netsim_shard_chan_max_occupancy"
)

// Cluster runs one simulation as Shards parallel partitions under a
// conservative-lookahead coordinator (see internal/sim). Each shard is a
// partial Network — its own engine, packet pool, and a fork of each
// observer the caller attached (pre-processor, recorder, watchdog) — and
// cross-shard packets are exchanged at window barriers in a deterministic
// global order, so a cluster run is reproducible regardless of GOMAXPROCS
// or goroutine scheduling.
type Cluster struct {
	cfg   Config
	nets  []*Network
	coord *sim.Coordinator
	seqs  []uint64 // per-shard handoff sequence counters
	fcts  *stats.Collector

	flushed sim.CoordStats // coordinator counters already published
	merged  bool
	closed  bool
}

// NewCluster builds a sharded simulation. cfg.Shards must be in
// [1, Leaves]; one shard is allowed (it exercises the coordinator path
// and must match New exactly — the determinism regression tests rely on
// it). See Config.Shards for the sharded-mode constraints.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Leaves {
		return nil, fmt.Errorf("netsim: %d shards exceed %d leaves (a shard owns at least one leaf pod)", s, cfg.Leaves)
	}
	if cfg.Controller != nil {
		return nil, fmt.Errorf("netsim: the controller requires the single-threaded engine (Shards <= 1)")
	}
	if cfg.Engine != nil || cfg.Pool != nil {
		return nil, fmt.Errorf("netsim: Engine and Pool must be nil in sharded mode (each shard builds private ones)")
	}
	leafOwner, spineOwner := makeOwners(&cfg, s)
	c := &Cluster{
		cfg:  cfg,
		nets: make([]*Network, s),
		seqs: make([]uint64, s),
		fcts: stats.NewCollector(),
	}
	for i := 0; i < s; i++ {
		i := i
		part := &partition{
			shard:      i,
			shards:     s,
			leafOwner:  leafOwner,
			spineOwner: spineOwner,
			handoff: func(at sim.Time, link uint64, dst int, p *pkt.Packet) {
				c.nets[i].pool.Lend(p)
				c.seqs[i]++
				c.coord.Send(sim.Message{At: at, Dst: dst, Link: link, Seq: c.seqs[i], Data: p})
			},
		}
		// One fork/absorb contract for all three observers: the shard
		// runs a private fork of the parent's configuration (nil forks
		// nil) and finish absorbs it back into the parent.
		scfg := cfg
		scfg.Preprocessor = cfg.Preprocessor.Clone()
		scfg.Trace = cfg.Trace.Shard(i)
		scfg.Watch = cfg.Watch.Shard(i)
		n, err := build(scfg, part)
		if err != nil {
			return nil, err
		}
		c.nets[i] = n
	}
	// A ranker that keeps per-flow state is called from every shard that
	// sources one of its tenant's flows; more than one is a data race.
	// (The builds above have validated the flow endpoints.)
	for i := range cfg.Tenants {
		td := &cfg.Tenants[i]
		if _, stateful := td.Ranker.(rank.FlowReleaser); !stateful {
			continue
		}
		home := -1
		for _, f := range td.Flows {
			at := leafOwner[f.Src/cfg.HostsPerLeaf]
			if home < 0 {
				home = at
			}
			if at != home {
				return nil, fmt.Errorf("netsim: tenant %q's ranker keeps per-flow state but its flows are sourced in shards %d and %d; keep them in one shard or run with Shards <= 1",
					td.Name, home, at)
			}
		}
	}
	shards := make([]sim.ShardConfig, s)
	for i, n := range c.nets {
		shards[i] = sim.ShardConfig{Engine: n.eng, Inject: n.inject}
	}
	coord, err := sim.NewCoordinator(sim.CoordConfig{
		Shards:    shards,
		Lookahead: cfg.PropDelay,
		ChanCap:   cfg.ShardChanCap,
	})
	if err != nil {
		return nil, err
	}
	c.coord = coord
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.nets) }

// Shard exposes one shard's partial Network (for tests).
func (c *Cluster) Shard(i int) *Network { return c.nets[i] }

// CoordStats returns the coordinator's synchronization counters: windows,
// cross-shard messages, channel high-water mark, and per-shard busy and
// barrier-wait wall-clock times. Call it between Runs or after Run.
func (c *Cluster) CoordStats() sim.CoordStats { return c.coord.Stats() }

// Run executes the parallel simulation to the horizon, drains in-flight
// traffic (mirroring Network.Run), then merges per-shard results: FCT
// records, trace rings, preprocessor stats, and telemetry.
func (c *Cluster) Run() {
	c.coord.Run(c.cfg.Horizon)
	// Workers are parked between coordinator runs, so touching shard
	// state here is safe (the command channels order the accesses).
	for _, n := range c.nets {
		n.stopAllCBR()
	}
	c.coord.Run(2 * c.cfg.Horizon)
	c.finish()
}

// finish merges per-shard results into cluster-level views. It runs once.
func (c *Cluster) finish() {
	if c.merged {
		return
	}
	c.merged = true
	// Flow records, ordered deterministically: completion time, then
	// start, then flow ID (IDs are globally unique, so the order is
	// total). A shard's collector is already in completion order; the
	// merge makes the global order independent of shard count.
	var recs []stats.FlowRecord
	for _, n := range c.nets {
		recs = append(recs, n.fcts.Records()...)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].End != recs[j].End {
			return recs[i].End < recs[j].End
		}
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].ID < recs[j].ID
	})
	for _, r := range recs {
		c.fcts.Add(r)
	}
	// The forks roll up into the parents the caller holds: recorders
	// merged by (time, shard), pre-processor counters summed, watchdog SLIs
	// merged by absolute window index — commutative in shard order.
	traces := make([]*trace.Recorder, len(c.nets))
	for i, n := range c.nets {
		traces[i] = n.cfg.Trace
		if c.cfg.Preprocessor != nil {
			c.cfg.Preprocessor.Absorb(n.pre.Stats())
		}
		c.cfg.Watch.Absorb(n.cfg.Watch)
	}
	c.cfg.Trace.Absorb(traces...)
	c.FlushMetrics()
}

// FlushMetrics publishes every shard's staged telemetry plus the
// coordinator's synchronization counters into the registry. A no-op
// without a registry.
func (c *Cluster) FlushMetrics() {
	for _, n := range c.nets {
		n.FlushMetrics()
	}
	reg := c.cfg.Registry
	if reg == nil {
		return
	}
	st := c.coord.Stats()
	// The generic coordinator families (qvisor_sim_*) publish alongside
	// the netsim-specific shard gauges below, sharing the same delta
	// baseline so both stay monotonic across repeated flushes.
	st.Export(reg, c.flushed)
	reg.Counter(MetricShardWindows,
		"Parallel windows executed by the shard coordinator.").Add(st.Windows - c.flushed.Windows)
	reg.Counter(MetricShardMessages,
		"Cross-shard packet handoffs exchanged at window barriers.").Add(st.Messages - c.flushed.Messages)
	reg.Gauge(MetricShardChanMax,
		"High-water mark of the cross-shard handoff channel.").Set(float64(st.MaxChanLen))
	for i := range c.nets {
		l := obs.L("shard", fmt.Sprintf("%d", i))
		reg.Gauge(MetricShardBarrierWait,
			"Wall-clock time the shard sat at barriers waiting for other shards.", l).
			Set(st.BarrierWait[i].Seconds())
		reg.Gauge(MetricShardBusy,
			"Wall-clock time the shard spent injecting and running events.", l).
			Set(st.Busy[i].Seconds())
	}
	c.flushed = st
}

// FCTs returns the merged flow-completion collector (populated by Run).
func (c *Cluster) FCTs() *stats.Collector { return c.fcts }

// Counters returns the packet counters summed over all shards. Every
// event is counted on exactly one shard (sends where the source host
// lives, deliveries where the destination lives, drops where the queue
// overflowed), so the sums match a single-threaded run of the same
// traffic.
func (c *Cluster) Counters() Counters {
	var t Counters
	for _, n := range c.nets {
		s := n.count
		t.DataSent += s.DataSent
		t.Retransmits += s.Retransmits
		t.AcksSent += s.AcksSent
		t.Delivered += s.Delivered
		t.Dropped += s.Dropped
		t.CBRSent += s.CBRSent
		t.CBRDelivered += s.CBRDelivered
		t.CBROnTime += s.CBROnTime
	}
	return t
}

// PortStats returns every port's telemetry in the same global stable
// order as Network.PortStats: host uplinks, then leaf ports, then spine
// ports — shard count does not change the order.
func (c *Cluster) PortStats() []PortStats {
	cfg := &c.cfg
	netOfLeaf := func(li int) *Network {
		return c.nets[c.nets[0].part.leafOwner[li]]
	}
	netOfSpine := func(si int) *Network {
		return c.nets[c.nets[0].part.spineOwner[si]]
	}
	var out []PortStats
	for h := 0; h < cfg.Leaves*cfg.HostsPerLeaf; h++ {
		n := netOfLeaf(h / cfg.HostsPerLeaf)
		out = append(out, n.hosts[h].up.stats(n.eng.Now()))
	}
	for li := 0; li < cfg.Leaves; li++ {
		n := netOfLeaf(li)
		for _, p := range n.leaves[li].ports {
			out = append(out, p.stats(n.eng.Now()))
		}
	}
	for si := 0; si < cfg.Spines; si++ {
		n := netOfSpine(si)
		for _, p := range n.spines[si].ports {
			out = append(out, p.stats(n.eng.Now()))
		}
	}
	c.FlushMetrics()
	return out
}

// Outstanding sums packet-conservation accounting over every shard's
// pool. Lend/Adopt keep the sum exact across handoffs, so a drained
// cluster reports zero.
func (c *Cluster) Outstanding() int {
	t := 0
	for _, n := range c.nets {
		t += n.pool.Outstanding()
	}
	return t
}

// Close shuts the shard worker goroutines down. Idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.coord.Close()
}
