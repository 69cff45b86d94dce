// Package netsim is the packet-level network simulator the reproduction
// uses in place of Netbench (§4 of the paper): a leaf-spine data-center
// fabric with output-queued switches, ECMP routing, a pFabric-style
// transport for size-based flows, and constant-bit-rate sources for
// deadline traffic.
//
// Each switch egress port runs a pluggable scheduler (internal/sched) and,
// when QVISOR is deployed, packets are run through the pre-processor
// (internal/core) at the first switch they traverse, exactly once — the
// rank rewrite that realizes the joint scheduling policy.
package netsim

import (
	"fmt"
	"sort"

	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
	"qvisor/internal/workload"
)

// TenantDef binds a tenant's traffic to its rank function for simulation.
type TenantDef struct {
	// ID is the tenant label carried on packets.
	ID pkt.TenantID
	// Name is the tenant's name in operator specs and statistics.
	Name string
	// Ranker computes packet ranks at the sending host.
	Ranker rank.Ranker
	// Flows is the tenant's traffic.
	Flows []workload.FlowSpec
}

// Config describes a simulation.
type Config struct {
	// Leaves, Spines, HostsPerLeaf shape the leaf-spine topology. The
	// paper uses 9 leaves × 16 hosts and 4 spines.
	Leaves, Spines, HostsPerLeaf int
	// AccessBps and FabricBps are the host-leaf and leaf-spine link
	// rates in bits per second (1 Gbps and 4 Gbps in the paper).
	AccessBps, FabricBps float64
	// PropDelay is the one-way propagation delay of every link. Zero
	// means 1 µs.
	PropDelay sim.Time
	// Scheduler builds the queueing discipline of each switch egress
	// port. The provided drop callback must be wired into the
	// scheduler's configuration so evictions and admission drops are
	// counted. Nil means a default PIFO.
	Scheduler func(drop sched.DropFn) sched.Scheduler
	// SchedulerFor, when non-nil, overrides Scheduler per device — the
	// cross-device orchestration hook (§5): role is "host", "leaf", or
	// "spine", id the device index. Return nil to fall back to
	// Scheduler for that device.
	SchedulerFor func(role string, id int, drop sched.DropFn) sched.Scheduler
	// Preprocessor, when non-nil, rewrites packet ranks at the first
	// switch (QVISOR deployed). Nil simulates the raw single-tenant
	// scheduler.
	Preprocessor *core.Preprocessor
	// Epochs, when non-nil, supplies the rank transformation per-packet
	// from an RCU-style policy-generation store instead of a fixed
	// Preprocessor: each packet pins the current epoch at its first
	// switch, is rewritten by that generation's table, and releases the
	// pin at delivery or drop — so control-plane publishes never mix
	// generations mid-flight. The network runs them through a
	// pre-processor of its own (see PreprocStats). Mutually exclusive
	// with Preprocessor. Packets record their generation in Packet.Epoch
	// and trace events.
	Epochs *core.EpochStore
	// Controller, when non-nil, receives rank observations from hosts
	// and runs a drift check every CheckInterval.
	Controller *core.Controller
	// CheckInterval is the controller's check period. Zero means 10 ms.
	CheckInterval sim.Time
	// Tenants is the traffic.
	Tenants []TenantDef
	// Trace, when non-nil, records packet lifecycle events — emit,
	// switch arrival, rank transform, per-port enqueue/dequeue, deliver,
	// and drop (with cause) — into the recorder's ring and/or JSONL
	// stream. Whether the recorder samples a packet's flow is decided
	// once, where the packet is created, and carried on the packet
	// (tap.go): an unsampled packet costs one branch per event site and
	// no allocation. A cluster forks one child recorder per shard and
	// merges them back into Trace after Run.
	Trace *trace.Recorder
	// Watch, when non-nil, is the online fidelity watchdog
	// (internal/slo): every port mirrors a flow-consistent sample of its
	// traffic into a shadow oracle, and the network reports sampled
	// deliveries and switch-side drops; the sample is decided at emit
	// like Trace's, on the watchdog's own rate. A cluster forks and
	// re-merges it like Trace — so the caller reads SLIs from Watch in
	// both modes, and the merged snapshot is byte-identical to a
	// single-threaded run of the same traffic.
	Watch *slo.Watchdog
	// Registry, when non-nil, exports fabric telemetry (internal/obs):
	// per-role tx/drop counters, per-port utilization and high-water-mark
	// gauges, and the qvisor_sched_* families (per device role and
	// scheduler name) of every port scheduler, whatever its type: the
	// port counts what goes in and comes out (series.go). All of it is
	// staged on the data path and published by Run/PortStats/
	// FlushMetrics, so instrumentation costs no atomics per packet.
	Registry *obs.Registry
	// Pool, when non-nil, supplies the packet buffers: the network
	// acquires every packet from it and releases each one exactly once —
	// at final delivery or at the drop that removes it from the network.
	// Nil builds a private pool. Sweep harnesses pass one pool per worker
	// so the free list stays warm across trials.
	Pool *pkt.Pool
	// DisablePool turns pooling off: every packet is a fresh allocation
	// left to the garbage collector. Simulation results are byte-identical
	// with pooling on or off (pooled packets are zeroed on release), so
	// this exists for A/B verification and allocation profiling.
	// DisablePool overrides Pool.
	DisablePool bool
	// Engine, when non-nil, is Reset and reused instead of building a new
	// event engine, keeping its item free list and heap capacity warm
	// across trials. The engine must not be shared between concurrently
	// running networks.
	Engine *sim.Engine
	// MSS is the payload bytes per packet. Zero means 1460.
	MSS int
	// HeaderBytes is the per-packet overhead on the wire. Zero means 64
	// (Ethernet + IP + transport + QVISOR label).
	HeaderBytes int
	// Window is the transport's send window in packets. Zero sizes it to
	// twice the access-link bandwidth-delay product.
	Window int
	// RTO is the retransmission timeout. Zero means 3 ms.
	RTO sim.Time
	// Horizon ends the simulation.
	Horizon sim.Time
	// Shards splits the simulation into partitions that run in parallel
	// under a conservative-lookahead coordinator (Build returns a Cluster
	// when Shards > 1). Each shard owns a contiguous block of leaf pods
	// (the leaves plus their hosts) and every Spines/Shards-th spine, runs
	// its own engine and packet pool, and exchanges cross-shard packets at
	// window barriers whose length is the link propagation delay. Zero or
	// one keeps the single-threaded engine — the byte-identical reference
	// path. A sharded run is deterministic (repeatable at any GOMAXPROCS)
	// and preserves the reference run's counters, flows, and per-flow
	// packet order; same-nanosecond arrivals from different links are the
	// one tie the barrier merge may order differently, shifting individual
	// completion times by nanoseconds (DESIGN.md "Sharded execution
	// model").
	//
	// Constraints in sharded mode: Shards <= Leaves; Controller must be
	// nil (its drift checks read host state across shards); Engine and
	// Pool must be nil (each shard builds private ones); and a tenant
	// whose Ranker keeps per-flow state (a rank.FlowReleaser: STFQ,
	// Composite) must have all of its flows sourced inside one shard.
	// NewCluster rejects a config that breaks any of these.
	Shards int
	// ShardChanCap bounds the cross-shard handoff channel in sharded mode.
	// Zero means sim.DefaultChanCap.
	ShardChanCap int
}

func (c *Config) defaults() error {
	if c.Leaves <= 0 || c.Spines <= 0 || c.HostsPerLeaf <= 0 {
		return fmt.Errorf("netsim: topology must have positive dimensions (%d leaves, %d spines, %d hosts/leaf)",
			c.Leaves, c.Spines, c.HostsPerLeaf)
	}
	if c.AccessBps <= 0 || c.FabricBps <= 0 {
		return fmt.Errorf("netsim: link rates must be positive")
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("netsim: non-positive horizon")
	}
	if c.Epochs != nil && c.Preprocessor != nil {
		return fmt.Errorf("netsim: Epochs and Preprocessor are mutually exclusive")
	}
	if c.Shards < 0 {
		return fmt.Errorf("netsim: negative shard count %d", c.Shards)
	}
	if c.PropDelay <= 0 {
		c.PropDelay = sim.Microsecond
	}
	if c.Scheduler == nil {
		c.Scheduler = func(drop sched.DropFn) sched.Scheduler {
			return sched.NewPIFO(sched.Config{OnDrop: drop})
		}
	}
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.HeaderBytes <= 0 {
		c.HeaderBytes = 64
	}
	if c.RTO <= 0 {
		c.RTO = 3 * sim.Millisecond
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 10 * sim.Millisecond
	}
	if c.Window <= 0 {
		// Two bandwidth-delay products of the access link, assuming an
		// 8-hop round trip of propagation plus ~4 serializations.
		rtt := 8*c.PropDelay + 4*txTime(c.MSS+c.HeaderBytes, c.AccessBps)
		bdpBytes := c.AccessBps / 8 * rtt.Seconds()
		c.Window = int(2 * bdpBytes / float64(c.MSS))
		if c.Window < 2 {
			c.Window = 2
		}
	}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("netsim: tenant %d has no name", i)
		}
		if t.Ranker == nil {
			return fmt.Errorf("netsim: tenant %q has no ranker", t.Name)
		}
	}
	return nil
}

// Counters aggregates network-wide packet accounting.
type Counters struct {
	// DataSent counts first transmissions of data packets.
	DataSent uint64
	// Retransmits counts retransmitted data packets.
	Retransmits uint64
	// AcksSent counts acknowledgment packets.
	AcksSent uint64
	// Delivered counts packets received by their destination host.
	Delivered uint64
	// Dropped counts packets dropped by switch queues.
	Dropped uint64
	// CBRSent counts constant-bit-rate packets emitted.
	CBRSent uint64
	// CBRDelivered counts CBR packets that arrived.
	CBRDelivered uint64
	// CBROnTime counts CBR packets that arrived before their deadline.
	CBROnTime uint64
}

// Network is one simulation instance — either the whole topology
// (single-threaded, built by New) or one shard of it (built by a Cluster,
// which leaves the device slices nil at indexes other shards own).
type Network struct {
	cfg    Config
	eng    *sim.Engine
	pool   *pkt.Pool          // nil when pooling is disabled (nil-safe methods)
	pre    *core.Preprocessor // Config.Preprocessor, or the network's own under Config.Epochs
	tap    tap                // Config.Trace and Config.Watch: where every packet event is reported
	hosts  []*Host
	leaves []*Switch
	spines []*Switch
	fcts   *stats.Collector
	count  Counters

	// part is the shard this Network embodies; nil for the whole-topology
	// single-threaded build.
	part *partition
	// inbound holds one arrival ring per cross-shard link this shard
	// receives on, indexed by global link id; inject pushes handed-off
	// packets here so their arrival events cost no allocation.
	inbound []inboundRing

	// series shares one scheduler series per (device role, scheduler
	// name), so the scheduler families aggregate across the role's ports.
	series map[string]*schedSeries

	// dropStage stages per-(tenant, cause) drop counts on the data path
	// as plain map increments; FlushMetrics publishes the deltas into the
	// registry (nil maps when uninstrumented — the staging is skipped).
	dropStage   map[dropKey]uint64
	dropFlushed map[dropKey]uint64
	tenantNames map[pkt.TenantID]string

	nextPktID uint64
}

// dropKey identifies one per-tenant, per-cause drop counter.
type dropKey struct {
	tenant pkt.TenantID
	cause  sched.DropCause
}

// drop removes p from the network: the one place a dropped packet is
// counted, attributed to (tenant, cause) when instrumented, shown to the
// observers and released. pt is the port whose scheduler refused or evicted
// p, nil when a switch dropped it outside any queue.
func (n *Network) drop(now sim.Time, where string, pt *Port, p *pkt.Packet, cause sched.DropCause) {
	n.count.Dropped++
	if n.dropStage != nil {
		n.dropStage[dropKey{p.Tenant, cause}]++
	}
	if pt != nil {
		pt.drops++
	}
	n.tap.drop(now, where, pt, p, cause)
	n.releasePkt(p)
}

// tenantName resolves a tenant ID to its configured name for metric
// labels, falling back to "tenant<id>".
func (n *Network) tenantName(id pkt.TenantID) string {
	if name, ok := n.tenantNames[id]; ok {
		return name
	}
	name := fmt.Sprintf("tenant%d", id)
	if n.tenantNames != nil {
		n.tenantNames[id] = name
	}
	return name
}

// Metric families exported by an instrumented network.
const (
	MetricPortTxBytes     = "qvisor_netsim_tx_bytes_total"
	MetricPortTxPackets   = "qvisor_netsim_tx_packets_total"
	MetricPortDrops       = "qvisor_netsim_drops_total"
	MetricPortUtilization = "qvisor_netsim_port_utilization"
	MetricPortMaxQueued   = "qvisor_netsim_port_max_queued_bytes"
	MetricDropsByCause    = "qvisor_netsim_drops_by_cause_total"
)

// schedSeries returns the shared scheduler series for one (role,
// scheduler) pair — nil when the network is uninstrumented.
func (n *Network) schedSeries(role, scheduler string) *schedSeries {
	if n.cfg.Registry == nil {
		return nil
	}
	key := role + "\x00" + scheduler
	s, ok := n.series[key]
	if !ok {
		s = newSchedSeries(n.cfg.Registry, obs.L("role", role), obs.L("scheduler", scheduler))
		n.series[key] = s
	}
	return s
}

// New builds the whole network on one engine and schedules all tenant
// flows. The returned network is ready to Run. This is the reference
// path: a Config with Shards <= 1 behaves byte-identically through New
// regardless of the sharding code (use Build to pick New or NewCluster
// from the config).
func New(cfg Config) (*Network, error) {
	return build(cfg, nil)
}

// build constructs a Network. With a nil partition it builds the whole
// topology; with a partition it builds only the devices the shard owns
// (leaving other slots nil), turns egress ports whose receiving device
// lives elsewhere into handoff ports, and arms inbound arrival rings for
// the links this shard receives on. Flow IDs are assigned from the global
// schedule order — (start time, tenant order, flow order) — so every
// shard agrees on them and they match the single-threaded assignment
// exactly; per-flow ECMP therefore picks the same spine in both modes.
func build(cfg Config, part *partition) (*Network, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if part != nil && cfg.Controller != nil {
		return nil, fmt.Errorf("netsim: the controller requires the single-threaded engine (Shards <= 1)")
	}
	eng := cfg.Engine
	if eng == nil {
		eng = sim.New()
	} else {
		eng.Reset()
	}
	var pool *pkt.Pool
	if !cfg.DisablePool {
		if pool = cfg.Pool; pool == nil {
			pool = pkt.NewPool()
		}
	}
	n := &Network{
		cfg:  cfg,
		eng:  eng,
		pool: pool,
		pre:  cfg.Preprocessor,
		tap:  tap{rec: cfg.Trace, watch: cfg.Watch},
		fcts: stats.NewCollector(),
		part: part,
	}
	if part != nil {
		// Disjoint per-shard ID ranges: packet IDs stay globally unique in
		// merged traces without cross-shard coordination. (Flow IDs come
		// from the global schedule order below, not from this base.)
		n.nextPktID = uint64(part.shard) << 48
	}
	if cfg.Registry != nil {
		n.dropStage = make(map[dropKey]uint64)
		n.dropFlushed = make(map[dropKey]uint64)
		n.series = make(map[string]*schedSeries)
		n.tenantNames = make(map[pkt.TenantID]string, len(cfg.Tenants))
		for i := range cfg.Tenants {
			n.tenantNames[cfg.Tenants[i].ID] = cfg.Tenants[i].Name
		}
	}
	hostCount := cfg.Leaves * cfg.HostsPerLeaf
	n.hosts = make([]*Host, hostCount)
	n.leaves = make([]*Switch, cfg.Leaves)
	n.spines = make([]*Switch, cfg.Spines)

	for i := range n.spines {
		if part.ownsSpine(i) {
			n.spines[i] = newSwitch(n, spineSwitch, i, cfg.Leaves)
		}
	}
	for i := range n.leaves {
		if part.ownsLeaf(i) {
			n.leaves[i] = newSwitch(n, leafSwitch, i, cfg.HostsPerLeaf+cfg.Spines)
		}
	}
	for h := range n.hosts {
		if part.ownsLeaf(h / cfg.HostsPerLeaf) {
			n.hosts[h] = newHost(n, h)
		}
	}

	// Wire ports: host <-> leaf (access rate), leaf <-> spine (fabric).
	// Hosts always share their leaf's shard, so access links never cross
	// shards; fabric links cross when leaf and spine have different
	// owners, and the egress port then hands off to the coordinator
	// instead of scheduling a local arrival.
	for h, host := range n.hosts {
		if host == nil {
			continue
		}
		leaf := n.leaves[h/cfg.HostsPerLeaf]
		local := h % cfg.HostsPerLeaf
		host.up = n.newPort("host", h,
			fmt.Sprintf("host%d→leaf%d", h, leaf.id), cfg.AccessBps, leaf.receive)
		leaf.ports[local] = n.newPort("leaf", leaf.id,
			fmt.Sprintf("leaf%d→host%d", leaf.id, h), cfg.AccessBps, host.receive)
	}
	if part != nil {
		n.inbound = make([]inboundRing, 2*cfg.Leaves*cfg.Spines)
	}
	for li := range n.leaves {
		for si := range n.spines {
			upName := fmt.Sprintf("leaf%d→spine%d", li, si)
			downName := fmt.Sprintf("spine%d→leaf%d", si, li)
			switch {
			case part.ownsLeaf(li) && part.ownsSpine(si):
				n.leaves[li].ports[cfg.HostsPerLeaf+si] = n.newPort("leaf", li,
					upName, cfg.FabricBps, n.spines[si].receive)
				n.spines[si].ports[li] = n.newPort("spine", si,
					downName, cfg.FabricBps, n.leaves[li].receive)
			case part.ownsLeaf(li):
				n.leaves[li].ports[cfg.HostsPerLeaf+si] = n.newRemotePort("leaf", li,
					upName, cfg.FabricBps, linkLeafSpine(&cfg, li, si), part.spineOwner[si])
				n.armInbound(linkSpineLeaf(&cfg, si, li), n.leaves[li].receive)
			case part.ownsSpine(si):
				n.spines[si].ports[li] = n.newRemotePort("spine", si,
					downName, cfg.FabricBps, linkSpineLeaf(&cfg, si, li), part.leafOwner[li])
				n.armInbound(linkLeafSpine(&cfg, li, si), n.spines[si].receive)
			}
		}
	}

	// Schedule tenant traffic (only flows sourced on owned hosts, but
	// validate and number all of them so shards agree on flow IDs).
	type flowRef struct {
		ti, fi int
	}
	var refs []flowRef
	for ti := range cfg.Tenants {
		td := &cfg.Tenants[ti]
		for fi, spec := range td.Flows {
			if spec.Src < 0 || spec.Src >= hostCount || spec.Dst < 0 || spec.Dst >= hostCount {
				return nil, fmt.Errorf("netsim: tenant %q flow endpoints (%d,%d) outside %d hosts",
					td.Name, spec.Src, spec.Dst, hostCount)
			}
			if spec.Src == spec.Dst {
				return nil, fmt.Errorf("netsim: tenant %q flow has src == dst", td.Name)
			}
			refs = append(refs, flowRef{ti, fi})
		}
	}
	// Number flows the way the single-threaded engine fires their start
	// events: by start time, ties in (tenant, flow) insertion order.
	sort.SliceStable(refs, func(i, j int) bool {
		return cfg.Tenants[refs[i].ti].Flows[refs[i].fi].Start <
			cfg.Tenants[refs[j].ti].Flows[refs[j].fi].Start
	})
	for ord, ref := range refs {
		td := &cfg.Tenants[ref.ti]
		spec := td.Flows[ref.fi]
		if n.hosts[spec.Src] == nil {
			continue
		}
		id := uint64(ord + 1)
		n.eng.At(spec.Start, func(now sim.Time) {
			n.hosts[spec.Src].startFlow(now, td, spec, id)
		})
	}

	// Controller check loop.
	if cfg.Controller != nil {
		var tick func(sim.Time)
		tick = func(now sim.Time) {
			if _, err := cfg.Controller.Check(now); err == nil {
				if now+cfg.CheckInterval <= cfg.Horizon {
					n.eng.After(cfg.CheckInterval, tick)
				}
			}
		}
		n.eng.After(cfg.CheckInterval, tick)
	}
	return n, nil
}

// Engine exposes the event engine (for tests and custom scenarios).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Pool exposes the packet pool — nil when pooling is disabled. Its
// Outstanding count is the number of packets still inside the network
// (queued or on the wire); after a fully drained run it is zero.
func (n *Network) Pool() *pkt.Pool { return n.pool }

// Hosts returns the number of hosts.
func (n *Network) Hosts() int { return len(n.hosts) }

// FCTs returns the flow-completion-time collector.
func (n *Network) FCTs() *stats.Collector { return n.fcts }

// Counters returns a snapshot of the packet counters.
func (n *Network) Counters() Counters { return n.count }

// PreprocStats returns the counters of the pre-processor the switches run
// (zero without one). Under Config.Epochs that is the network's own, whose
// qvisor_preproc_* series go to Config.Registry.
func (n *Network) PreprocStats() core.PreprocStats { return n.pre.Stats() }

// preprocFor returns the pre-processor that rewrites p at its first
// switch. Under Config.Epochs it first pins p to the live policy
// generation — whose table stays in force for this packet until delivery
// or drop, even if the control plane publishes newer epochs meanwhile —
// and points the pre-processor at it; nil before the first publish.
func (n *Network) preprocFor(p *pkt.Packet) *core.Preprocessor {
	if es := n.cfg.Epochs; es != nil {
		e := es.Acquire()
		if e == nil {
			return nil
		}
		p.Epoch = e.Gen
		if n.pre == nil {
			n.pre = e.Preprocessor()
			n.pre.EnableMetrics(n.cfg.Registry, n.tenantName)
		}
		n.pre.Pin(e)
	}
	return n.pre
}

// Run executes the simulation until the horizon, then lets in-flight
// traffic drain for up to one extra horizon so flows started near the end
// can complete.
func (n *Network) Run() {
	n.eng.Run(n.cfg.Horizon)
	n.stopAllCBR()
	n.eng.Run(2 * n.cfg.Horizon)
	n.FlushMetrics()
}

// stopAllCBR halts every owned host's CBR sources (the drain boundary).
func (n *Network) stopAllCBR() {
	for _, h := range n.hosts {
		if h != nil {
			h.stopCBR()
		}
	}
}

// Outstanding is the number of packets currently inside this network
// (queued or on the wire) per the pool's conservation accounting — zero
// after a fully drained run, and zero always when pooling is disabled.
func (n *Network) Outstanding() int { return n.pool.Outstanding() }

// Close releases run resources. The single-threaded Network holds none;
// it exists so Network and Cluster satisfy the same Sim interface.
func (n *Network) Close() {}

// RunNoDrain executes strictly to the horizon (tests that need exact
// mid-simulation state).
func (n *Network) RunNoDrain() { n.eng.Run(n.cfg.Horizon) }

// txTime returns the serialization delay of size bytes at rate bps.
func txTime(size int, bps float64) sim.Time {
	t := sim.Time(float64(size*8) / bps * 1e9)
	if t < 1 {
		t = 1
	}
	return t
}

func (n *Network) pktID() uint64 {
	n.nextPktID++
	return n.nextPktID
}

// forEachPort visits every owned output port in stable order: host
// uplinks, then leaf ports, then spine ports.
func (n *Network) forEachPort(f func(*Port)) {
	for _, h := range n.hosts {
		if h != nil {
			f(h.up)
		}
	}
	for _, sw := range n.leaves {
		if sw == nil {
			continue
		}
		for _, p := range sw.ports {
			f(p)
		}
	}
	for _, sw := range n.spines {
		if sw == nil {
			continue
		}
		for _, p := range sw.ports {
			f(p)
		}
	}
}

// PortStats returns the telemetry of every output port in the network, in
// a stable order: host uplinks, then leaf ports, then spine ports.
func (n *Network) PortStats() []PortStats {
	elapsed := n.eng.Now()
	var out []PortStats
	n.forEachPort(func(p *Port) {
		out = append(out, p.stats(elapsed))
	})
	n.FlushMetrics()
	return out
}

// FlushMetrics publishes the staged telemetry into the registry: per-port
// tx/drop counter deltas, the lazily computed per-port gauges (utilization,
// queue high-water mark), the per-role scheduler series and the
// pre-processor's per-tenant stage. Run and PortStats call it; call it
// directly only when scraping mid-simulation.
func (n *Network) FlushMetrics() {
	n.pre.Flush()
	if n.cfg.Registry == nil {
		return
	}
	elapsed := n.eng.Now()
	n.forEachPort(func(p *Port) {
		p.flushObs(elapsed)
	})
	for _, s := range n.series {
		s.flush()
	}
	for k, v := range n.dropStage {
		if d := v - n.dropFlushed[k]; d > 0 {
			n.cfg.Registry.Counter(MetricDropsByCause,
				"Packets dropped, attributed to tenant and drop cause.",
				obs.L("tenant", n.tenantName(k.tenant)),
				obs.L("cause", k.cause.String())).Add(d)
			n.dropFlushed[k] = v
		}
	}
}

// releasePkt returns a packet to the pool after unpinning it from its
// policy epoch. Every point where a packet leaves the network — final
// delivery or any drop — must release through here so superseded epochs
// can finish draining.
func (n *Network) releasePkt(p *pkt.Packet) {
	if p.Epoch != 0 && n.cfg.Epochs != nil {
		n.cfg.Epochs.Release(p.Epoch)
	}
	n.pool.Put(p)
}

// leafOf returns the leaf index of a host.
func (n *Network) leafOf(host int) int { return host / n.cfg.HostsPerLeaf }

// ecmp picks a spine for a flow: deterministic per-flow hash, so a flow
// never reorders across paths.
func (n *Network) ecmp(flow uint64) int {
	h := flow * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return int(h % uint64(n.cfg.Spines))
}
