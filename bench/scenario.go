package main

import (
	"fmt"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/experiments"
	"qvisor/internal/netsim"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/workload"
)

// The timed passes of the simulator workloads go through experiments.Run,
// the program's own entry point. It closes the simulation before returning,
// so the counts the cost model needs — scheduler calls and backlog per
// port, engine queue depth, pre-processor and pool counters, coordinator
// telemetry — are read from a second build of the same scenario through
// netsim.Build, below. The traced run checks that both builds produce the
// same packet counters, so the model describes the run that was timed.

// Tenant labels of the Figure-4 scenario, as in internal/experiments.
const (
	pfabricID pkt.TenantID = 1
	edfID     pkt.TenantID = 2
)

// scaledRanker multiplies a ranker's output and bounds by a constant, as
// experiments does for runs with scaled-down flow sizes.
type scaledRanker struct {
	inner rank.Ranker
	mult  int64
}

func (r scaledRanker) Name() string { return r.inner.Name() }
func (r scaledRanker) Rank(now sim.Time, f *rank.Flow, payload int) int64 {
	return r.inner.Rank(now, f, payload) * r.mult
}
func (r scaledRanker) Bounds() rank.Bounds {
	b := r.inner.Bounds()
	return rank.Bounds{Lo: b.Lo * r.mult, Hi: b.Hi * r.mult}
}

// fig4Rankers returns the two tenants' rank functions for cfg.
func fig4Rankers(cfg experiments.Config) (pf, edf rank.Ranker) {
	pf = &rank.PFabric{MaxFlowBytes: int64(float64(300_000_000) * cfg.SizeScale)}
	if cfg.SizeScale != 1.0 {
		pf = scaledRanker{inner: pf, mult: int64(1.0/cfg.SizeScale + 0.5)}
	}
	return pf, &rank.EDF{MaxSlack: 2 * cfg.DeadlineBudget}
}

// genFlows generates the scenario's traffic exactly as experiments.Run does:
// Poisson data-mining flows for the pFabric tenant from cfg.Seed, CBR flows
// for the deadline tenant from cfg.Seed+1.
func genFlows(cfg experiments.Config, load float64) (pfFlows, cbrFlows []workload.FlowSpec, err error) {
	hosts := cfg.Leaves * cfg.HostsPerLeaf
	var sizes workload.SizeDist = workload.DataMining()
	if cfg.SizeScale != 1.0 {
		sizes = workload.DataMining().Scaled(cfg.SizeScale)
	}
	pfFlows, err = workload.Poisson(workload.PoissonConfig{
		Hosts: hosts, Load: load, AccessBitsPerSec: cfg.AccessBps,
		Sizes: sizes, Horizon: cfg.Horizon, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	cbrFlows, err = workload.CBR(workload.CBRConfig{
		Hosts: hosts, Flows: cfg.CBRFlows, BitsPerSec: cfg.CBRBps,
		DeadlineBudget: cfg.DeadlineBudget, Seed: cfg.Seed + 1,
	})
	return pfFlows, cbrFlows, err
}

// probeSched counts the calls a port makes into its scheduler and the
// backlog each Enqueue finds.
type probeSched struct {
	sched.Scheduler
	enq, deq, lenSum uint64
}

func (p *probeSched) Enqueue(pk *pkt.Packet) bool {
	p.enq++
	p.lenSum += uint64(p.Scheduler.Len())
	return p.Scheduler.Enqueue(pk)
}

func (p *probeSched) Dequeue() *pkt.Packet {
	p.deq++
	return p.Scheduler.Dequeue()
}

// probe is a scenario built for counting.
type probe struct {
	sim    netsim.Sim
	pp     *core.Preprocessor
	scheds []*probeSched
	pool   *pkt.Pool
	buildS float64
	// depthSum and depthN accumulate Engine.Pending() samples
	// (single-threaded builds only).
	depthSum, depthN uint64
}

// depthSamples is how often a counting run reads Engine.Pending().
const depthSamples = 1000

// buildProbe builds (scheme, load) under cfg through netsim.Build with every
// port scheduler wrapped in a probeSched.
func buildProbe(cfg experiments.Config, scheme experiments.Scheme, load float64) (*probe, error) {
	pfFlows, cbrFlows, err := genFlows(cfg, load)
	if err != nil {
		return nil, err
	}
	pfRanker, edfRanker := fig4Rankers(cfg)
	tenants := []netsim.TenantDef{
		{ID: pfabricID, Name: "pfabric", Ranker: pfRanker, Flows: pfFlows},
		{ID: edfID, Name: "edf", Ranker: edfRanker, Flows: cbrFlows},
	}
	if scheme == experiments.PIFOIdeal {
		tenants = tenants[:1]
	}
	pr := &probe{}
	if cfg.Shards <= 1 {
		pr.pool = pkt.NewPool()
	}
	ncfg := netsim.Config{
		Leaves: cfg.Leaves, Spines: cfg.Spines, HostsPerLeaf: cfg.HostsPerLeaf,
		AccessBps: cfg.AccessBps, FabricBps: cfg.FabricBps,
		Tenants: tenants, Horizon: cfg.Horizon,
		Pool: pr.pool, Shards: cfg.Shards,
	}
	inner := func(d sched.DropFn) sched.Scheduler { return sched.NewPIFO(sched.Config{OnDrop: d}) }
	switch scheme {
	case experiments.FIFOBoth:
		inner = func(d sched.DropFn) sched.Scheduler { return sched.NewFIFO(sched.Config{OnDrop: d}) }
	case experiments.PIFONaive, experiments.PIFOIdeal:
	default:
		spec, err := policy.Parse(scheme.OperatorSpec())
		if err != nil {
			return nil, err
		}
		const levels = 1 << 20 // experiments' default on a PIFO backend
		jp, err := core.Synthesize([]*core.Tenant{
			{ID: pfabricID, Name: "pfabric", Algorithm: pfRanker, Levels: levels},
			{ID: edfID, Name: "edf", Algorithm: edfRanker, Levels: levels},
		}, spec, core.SynthOptions{})
		if err != nil {
			return nil, err
		}
		pr.pp = core.NewPreprocessor(jp, core.UnknownWorst)
		ncfg.Preprocessor = pr.pp
		if _, err := jp.Deploy(cfg.Backend, core.DeployOptions{Queues: cfg.Queues}); err != nil {
			return nil, err
		}
		inner = func(d sched.DropFn) sched.Scheduler {
			dep, err := jp.Deploy(cfg.Backend, core.DeployOptions{Queues: cfg.Queues, Sched: sched.Config{OnDrop: d}})
			if err != nil {
				panic(err) // validated just above
			}
			return dep.Scheduler
		}
	}
	ncfg.Scheduler = func(d sched.DropFn) sched.Scheduler {
		ps := &probeSched{Scheduler: inner(d)}
		pr.scheds = append(pr.scheds, ps)
		return ps
	}
	t0 := time.Now()
	if pr.sim, err = netsim.Build(ncfg); err != nil {
		return nil, err
	}
	pr.buildS = time.Since(t0).Seconds()
	if n, ok := pr.sim.(*netsim.Network); ok {
		eng := n.Engine()
		for i := 1; i <= depthSamples; i++ {
			eng.At(cfg.Horizon*sim.Time(i)/depthSamples, func(sim.Time) {
				pr.depthSum += uint64(eng.Pending())
				pr.depthN++
			})
		}
	}
	return pr, nil
}

// counts is what one counting run observed, per layer.
type counts struct {
	counters netsim.Counters
	pkts     uint64 // packets emitted
	events   uint64
	depth    float64 // mean Engine.Pending()
	enq, deq uint64
	backlog  float64 // mean Len() at Enqueue
	preproc  core.PreprocStats
	pool     pkt.PoolStats
	hops     uint64 // port transmissions
	utilMax  float64
	coord    sim.CoordStats
	shards   int
	wall     float64 // host ns of Run
	buildS   float64
}

// sumCounts adds up the counting runs of a pass's schemes; depth and backlog
// become means weighted by the events and enqueues that saw them.
func sumCounts(cs []counts) counts {
	var sum counts
	for _, c := range cs {
		sum.pkts += c.pkts
		sum.events += c.events
		sum.enq += c.enq
		sum.deq += c.deq
		sum.backlog += c.backlog * float64(c.enq)
		sum.depth += c.depth * float64(c.events)
		sum.hops += c.hops
		sum.buildS += c.buildS
		sum.preproc.Processed += c.preproc.Processed
		sum.preproc.Clamped += c.preproc.Clamped
		sum.preproc.Unknown += c.preproc.Unknown
		sum.pool.Gets += c.pool.Gets
		sum.pool.News += c.pool.News
		sum.counters.Retransmits += c.counters.Retransmits
		sum.counters.DataSent += c.counters.DataSent
		sum.counters.AcksSent += c.counters.AcksSent
		sum.counters.Dropped += c.counters.Dropped
		sum.utilMax = max(sum.utilMax, c.utilMax)
	}
	sum.backlog = ratio(sum.backlog, float64(sum.enq))
	sum.depth = ratio(sum.depth, float64(sum.events))
	return sum
}

func emitted(c netsim.Counters) uint64 {
	return c.DataSent + c.Retransmits + c.AcksSent + c.CBRSent
}

// run executes the probe's simulation, closes it and returns the counts.
func (pr *probe) run() (counts, error) {
	defer pr.sim.Close()
	t0 := time.Now()
	pr.sim.Run()
	c := counts{wall: float64(time.Since(t0)), counters: pr.sim.Counters(), buildS: pr.buildS, shards: 1}
	c.pkts = emitted(c.counters)
	switch s := pr.sim.(type) {
	case *netsim.Network:
		// In flight when the drain window closes means exactly the packets
		// the pool has not got back. (A cluster's pools do not count a
		// packet still between two shards, so the sum can be short.)
		if out, inFlight := uint64(s.Outstanding()), c.pkts-c.counters.Delivered-c.counters.Dropped; out != inFlight {
			return c, fmt.Errorf("%d packets outstanding, counters say %d in flight", out, inFlight)
		}
		c.events = s.Engine().Fired() - pr.depthN
		c.depth = ratio(float64(pr.depthSum), float64(pr.depthN))
	case *netsim.Cluster:
		c.shards = s.Shards()
		for i := 0; i < c.shards; i++ {
			c.events += s.Shard(i).Engine().Fired()
		}
		c.coord = s.CoordStats()
	}
	var lenSum uint64
	for _, ps := range pr.scheds {
		c.enq += ps.enq
		c.deq += ps.deq
		lenSum += ps.lenSum
	}
	c.backlog = ratio(float64(lenSum), float64(c.enq))
	if pr.pp != nil {
		c.preproc = pr.pp.Stats()
	}
	c.pool = pr.pool.Stats()
	for _, ps := range pr.sim.PortStats() {
		c.hops += ps.TxPackets
		if ps.Utilization > c.utilMax {
			c.utilMax = ps.Utilization
		}
	}
	return c, nil
}
