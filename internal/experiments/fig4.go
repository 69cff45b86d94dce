// Package experiments reproduces the paper's evaluation (§4): the six
// scheduling schemes of Figure 4 on the leaf-spine data-center workload —
// tenant 1 running a data-mining workload under pFabric, tenant 2 running
// constant-bit-rate deadline flows under EDF — plus the ablations listed in
// DESIGN.md.
package experiments

import (
	"fmt"
	"os"
	"sort"

	"qvisor/internal/core"
	"qvisor/internal/netsim"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
	"qvisor/internal/workload"
)

// Scheme is one of the six configurations compared in Figure 4.
type Scheme int

const (
	// FIFOBoth: both tenants through a FIFO queue ("FIFO: pFabric and
	// EDF").
	FIFOBoth Scheme = iota
	// PIFONaive: both tenants' raw ranks into a PIFO ("PIFO: pFabric and
	// EDF") — the §2 clash: EDF's numerically small deadline ranks beat
	// pFabric's byte-denominated ranks.
	PIFONaive
	// PIFOIdeal: only the pFabric tenant, on a PIFO ("PIFO: pFabric") —
	// the isolation ideal the QVISOR curves are compared against.
	PIFOIdeal
	// QvisorEDFFirst: QVISOR with operator policy "edf >> pfabric".
	QvisorEDFFirst
	// QvisorShare: QVISOR with operator policy "pfabric + edf".
	QvisorShare
	// QvisorPFabricFirst: QVISOR with operator policy "pfabric >> edf".
	QvisorPFabricFirst
)

// Schemes lists all six Figure-4 schemes in the paper's legend order.
var Schemes = []Scheme{
	FIFOBoth, PIFONaive, PIFOIdeal, QvisorEDFFirst, QvisorShare, QvisorPFabricFirst,
}

// String implements fmt.Stringer, matching the paper's legend.
func (s Scheme) String() string {
	switch s {
	case FIFOBoth:
		return "FIFO: pFabric and EDF"
	case PIFONaive:
		return "PIFO: pFabric and EDF"
	case PIFOIdeal:
		return "PIFO: pFabric"
	case QvisorEDFFirst:
		return "QVISOR: EDF >> pFabric"
	case QvisorShare:
		return "QVISOR: pFabric + EDF"
	case QvisorPFabricFirst:
		return "QVISOR: pFabric >> EDF"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// OperatorSpec returns the QVISOR operator policy for the scheme, or ""
// for the non-QVISOR baselines.
func (s Scheme) OperatorSpec() string {
	switch s {
	case QvisorEDFFirst:
		return "edf >> pfabric"
	case QvisorShare:
		return "pfabric + edf"
	case QvisorPFabricFirst:
		return "pfabric >> edf"
	default:
		return ""
	}
}

// Config parametrizes the Figure-4 scenario, which every simulator
// experiment runs: its traffic (traffic) and its network (network). The
// zero value is invalid; use PaperConfig for the paper's topology or
// ScaledConfig for a laptop-scale run with the same shape.
type Config struct {
	// Topology.
	Leaves, Spines, HostsPerLeaf int
	AccessBps, FabricBps         float64
	// SizeScale multiplies the data-mining flow sizes (1.0 = paper
	// scale). Smaller values keep the distribution's shape while making
	// runs tractable.
	SizeScale float64
	// CBRFlows and CBRBps define tenant 2 (paper: 100 flows × 0.5 Gbps).
	CBRFlows int
	CBRBps   float64
	// DeadlineBudget is the per-packet EDF deadline (5 ms default).
	DeadlineBudget sim.Time
	// Horizon is the traffic-generation window.
	Horizon sim.Time
	// Seed seeds workload generation.
	Seed int64
	// Backend is the scheduler the joint policy deploys to for QVISOR
	// schemes (default PIFO, as in the paper). Non-QVISOR schemes ignore
	// it.
	Backend core.Backend
	// Queues is the queue count for multi-queue backends.
	Queues int
	// Levels is the synthesizer quantization granularity (0 = default).
	Levels int64
	// Trace, when non-nil, records packet events during the run.
	Trace *trace.Recorder
	// Watch, when non-nil, is the online fidelity watchdog (internal/slo)
	// observing the run: shadow-oracle sampling, per-tenant SLIs, and
	// burn-rate health. Sharded runs fork and re-merge it like Trace.
	Watch *slo.Watchdog
	// Workload selects the pFabric tenant's flow-size distribution:
	// "datamining" (paper default) or "websearch".
	Workload string
	// FlowsCSV, when set, replaces the generated pFabric workload with
	// the flow trace read from this CSV file (see workload.ReadCSV).
	FlowsCSV string
	// Registry, when non-nil, collects metrics (internal/obs) from the
	// run's pre-processor, port schedulers, and fabric. The registry is
	// safe for concurrent use, so sweeps may share one across runs — the
	// counters then aggregate over every run.
	Registry *obs.Registry
	// Pool, when non-nil, supplies the simulation's packet buffers and is
	// kept warm across runs (see netsim.Config.Pool). Pools are
	// single-threaded: a pool must never be shared by concurrent runs.
	// RunPoints creates one per worker when this is nil.
	Pool *pkt.Pool
	// Engine, when non-nil, is reset and reused by the simulation instead
	// of building a fresh event engine (see netsim.Config.Engine). Same
	// single-threaded caveat as Pool.
	Engine *sim.Engine
	// Shards runs the simulation on the sharded parallel engine with this
	// many partitions (see netsim.Config.Shards). Zero or one uses the
	// single-threaded engine. Sharded runs must not set Pool or Engine
	// (each shard builds private ones).
	Shards int
	// ShardChanCap bounds the cross-shard handoff channel (0 = default).
	ShardChanCap int
}

func (c Config) sizes() (workload.SizeDist, error) {
	var dist *workload.Empirical
	switch c.Workload {
	case "", "datamining":
		dist = workload.DataMining()
	case "websearch":
		dist = workload.WebSearch()
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", c.Workload)
	}
	if c.SizeScale != 1.0 {
		return dist.Scaled(c.SizeScale), nil
	}
	return dist, nil
}

// PaperConfig returns the paper's exact evaluation setup: 144 servers on 9
// leaves and 4 spines, 1 Gbps access and 4 Gbps fabric links, a data-mining
// tenant and 100 × 0.5 Gbps CBR flows. Running all loads at this scale
// takes hours; see ScaledConfig.
func PaperConfig() Config {
	return Config{
		Leaves: 9, Spines: 4, HostsPerLeaf: 16,
		AccessBps: 1e9, FabricBps: 4e9,
		SizeScale: 1.0,
		CBRFlows:  100, CBRBps: 0.5e9,
		DeadlineBudget: 5 * sim.Millisecond,
		Horizon:        sim.Second,
		Seed:           1,
	}
}

// ScaledConfig returns a laptop-scale configuration preserving the paper's
// ratios: 12 hosts on 3 leaves and 2 spines with full bisection bandwidth,
// flow sizes scaled to 1%, and CBR load scaled to the same ~35% share of
// aggregate access capacity.
func ScaledConfig() Config {
	return Config{
		Leaves: 3, Spines: 2, HostsPerLeaf: 4,
		AccessBps: 1e9, FabricBps: 2e9,
		SizeScale: 0.01,
		CBRFlows:  8, CBRBps: 0.5e9,
		DeadlineBudget: 5 * sim.Millisecond,
		Horizon:        100 * sim.Millisecond,
		Seed:           1,
	}
}

func (c Config) hosts() int { return c.Leaves * c.HostsPerLeaf }

// Result is one (scheme, load) data point.
type Result struct {
	Scheme Scheme
	Load   float64
	// Small and Large are the Figure-4a and 4b FCT summaries of the
	// pFabric tenant.
	Small, Large stats.Summary
	// All summarizes every pFabric flow.
	All stats.Summary
	// DeadlineMet is the fraction of delivered CBR packets on time.
	DeadlineMet float64
	// Counters are the network-wide packet counters.
	Counters netsim.Counters
	// Flows is the number of completed pFabric flows.
	Flows int
	// TopPorts is the port telemetry sorted by utilization, busiest
	// first (capped at ten entries).
	TopPorts []netsim.PortStats
}

// tenant labels used throughout the experiments.
const (
	pfabricID pkt.TenantID = 1
	edfID     pkt.TenantID = 2
)

// scaledRanker multiplies a ranker's output (and bounds) by a constant, so
// runs with scaled-down flow sizes emit ranks in the paper's original
// units.
type scaledRanker struct {
	inner rank.Ranker
	mult  int64
}

// Name implements rank.Ranker.
func (r scaledRanker) Name() string { return r.inner.Name() }

// Rank implements rank.Ranker.
func (r scaledRanker) Rank(now sim.Time, f *rank.Flow, payload int) int64 {
	return r.inner.Rank(now, f, payload) * r.mult
}

// Bounds implements rank.Ranker.
func (r scaledRanker) Bounds() rank.Bounds {
	b := r.inner.Bounds()
	return rank.Bounds{Lo: b.Lo * r.mult, Hi: b.Hi * r.mult}
}

// Run executes one (scheme, load) simulation and returns its result.
func Run(cfg Config, scheme Scheme, load float64) (Result, error) {
	res, s, err := run(cfg, scheme, load)
	if s != nil {
		s.Close()
	}
	return res, err
}

// traffic builds the scenario's traffic at load: the pFabric tenant's
// flows (Poisson arrivals over sizes(), or the FlowsCSV trace), the CBR
// deadline flows (seeded Seed+1), and the two tenants' rankers.
func (c Config) traffic(load float64) (pfFlows, cbrFlows []workload.FlowSpec, pf, edf rank.Ranker, err error) {
	if c.FlowsCSV != "" {
		f, err := os.Open(c.FlowsCSV)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		pfFlows, err = workload.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, nil, err
		}
	} else {
		sizes, err := c.sizes()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		pfFlows, err = workload.Poisson(workload.PoissonConfig{
			Hosts:            c.hosts(),
			Load:             load,
			AccessBitsPerSec: c.AccessBps,
			Sizes:            sizes,
			Horizon:          c.Horizon,
			Seed:             c.Seed,
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	cbrFlows, err = workload.CBR(workload.CBRConfig{
		Hosts:          c.hosts(),
		Flows:          c.CBRFlows,
		BitsPerSec:     c.CBRBps,
		DeadlineBudget: c.DeadlineBudget,
		Seed:           c.Seed + 1,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}

	maxFlow := int64(float64(300_000_000) * c.SizeScale)
	pf = &rank.PFabric{MaxFlowBytes: maxFlow}
	if c.SizeScale != 1.0 {
		// Scaled runs shrink flow sizes but keep pFabric ranks in the
		// paper's (unscaled) byte units, preserving the §2 rank clash:
		// EDF's microsecond-denominated ranks numerically beat the ranks
		// of all but the smallest pFabric flows.
		pf = scaledRanker{inner: pf, mult: int64(1.0/c.SizeScale + 0.5)}
	}
	return pfFlows, cbrFlows, pf, &rank.EDF{MaxSlack: 2 * c.DeadlineBudget}, nil
}

// network returns the simulation of c's fabric carrying tenants, with c's
// horizon, observers (Trace, Watch, Registry) and buffers (Pool, Engine,
// Shards, ShardChanCap). Callers add the rank rewrite and the scheduler.
// Shards takes effect only through netsim.Build, which run uses; the
// other experiments build single-threaded with netsim.New.
func (c Config) network(tenants ...netsim.TenantDef) netsim.Config {
	return netsim.Config{
		Leaves: c.Leaves, Spines: c.Spines, HostsPerLeaf: c.HostsPerLeaf,
		AccessBps: c.AccessBps, FabricBps: c.FabricBps,
		Tenants:      tenants,
		Horizon:      c.Horizon,
		Trace:        c.Trace,
		Watch:        c.Watch,
		Registry:     c.Registry,
		Pool:         c.Pool,
		Engine:       c.Engine,
		Shards:       c.Shards,
		ShardChanCap: c.ShardChanCap,
	}
}

// run is Run without the Close: the scaling sweep needs the live
// simulation to read coordinator telemetry before shutdown.
func run(cfg Config, scheme Scheme, load float64) (Result, netsim.Sim, error) {
	pfFlows, cbrFlows, pfRanker, edfRanker, err := cfg.traffic(load)
	if err != nil {
		return Result{}, nil, err
	}
	tenants := []netsim.TenantDef{
		{ID: pfabricID, Name: "pfabric", Ranker: pfRanker, Flows: pfFlows},
		{ID: edfID, Name: "edf", Ranker: edfRanker, Flows: cbrFlows},
	}
	if scheme == PIFOIdeal {
		tenants = tenants[:1] // pFabric alone in the network
	}
	ncfg := cfg.network(tenants...)

	switch scheme {
	case FIFOBoth:
		ncfg.Scheduler = func(d sched.DropFn) sched.Scheduler {
			s, err := sched.New("fifo", sched.Config{OnDrop: d})
			if err != nil {
				panic(err) // a fixed, valid spec; cannot fail
			}
			return s
		}
	case PIFONaive, PIFOIdeal:
		// Default PIFO, no pre-processing: raw tenant ranks compete.
	default:
		spec, err := policy.Parse(scheme.OperatorSpec())
		if err != nil {
			return Result{}, nil, err
		}
		levels := cfg.Levels
		if levels == 0 {
			// On a PIFO backend rank space is cheap; 2^20 levels keep
			// ~300-byte resolution on the pFabric tenant's heavy-tailed
			// rank domain.
			levels = 1 << 20
		}
		coreTenants := []*core.Tenant{
			{ID: pfabricID, Name: "pfabric", Algorithm: pfRanker, Levels: levels},
			{ID: edfID, Name: "edf", Algorithm: edfRanker, Levels: levels},
		}
		jp, err := core.Synthesize(coreTenants, spec, core.SynthOptions{})
		if err != nil {
			return Result{}, nil, err
		}
		ncfg.Preprocessor = core.NewPreprocessor(jp, core.UnknownWorst)
		ncfg.Preprocessor.EnableMetrics(cfg.Registry, tenantNames(tenants))
		backend := cfg.Backend // zero value is BackendPIFO
		dep, err := jp.Deploy(backend, core.DeployOptions{Queues: cfg.Queues})
		if err != nil {
			return Result{}, nil, err
		}
		_ = dep // prototype the deployment once to validate the config
		ncfg.Scheduler = func(d sched.DropFn) sched.Scheduler {
			dd, err := jp.Deploy(backend, core.DeployOptions{
				Queues: cfg.Queues,
				Sched:  sched.Config{OnDrop: d},
			})
			if err != nil {
				panic(err) // validated above; cannot fail here
			}
			return dd.Scheduler
		}
	}

	n, err := netsim.Build(ncfg)
	if err != nil {
		return Result{}, nil, err
	}
	n.Run()

	col := n.FCTs()
	// The paper bins flows by their unscaled sizes; scaled runs therefore
	// bin by proportionally scaled edges.
	smallMax, largeMin := cfg.SmallBinFor()
	res := Result{
		Scheme: scheme,
		Load:   load,
		Small: stats.Summarize(col.Filter(func(r stats.FlowRecord) bool {
			return r.Tenant == "pfabric" && r.Size > 0 && r.Size < smallMax
		})),
		Large: stats.Summarize(col.Filter(func(r stats.FlowRecord) bool {
			return r.Tenant == "pfabric" && r.Size >= largeMin
		})),
		All:      col.BinSummary("pfabric", stats.AllFlows),
		Counters: n.Counters(),
		Flows:    len(col.Tenant("pfabric")),
	}
	if c := res.Counters; c.CBRDelivered > 0 {
		res.DeadlineMet = float64(c.CBROnTime) / float64(c.CBRDelivered)
	}
	ports := n.PortStats()
	sort.Slice(ports, func(i, j int) bool { return ports[i].Utilization > ports[j].Utilization })
	if len(ports) > 10 {
		ports = ports[:10]
	}
	res.TopPorts = ports
	return res, n, nil
}

// SmallBinFor returns the flow-size bin edges adjusted for SizeScale: the
// paper bins by the unscaled sizes, so scaled runs bin by scaled edges.
// (Figure 4a uses (0, 100 KB); 4b uses [1 MB, ∞).)
func (c Config) SmallBinFor() (int64, int64) {
	return int64(float64(stats.SmallFlowMax) * c.SizeScale),
		int64(float64(stats.LargeFlowMin) * c.SizeScale)
}

// tenantNames builds the tenant-ID → name lookup used for metric labels.
func tenantNames(defs []netsim.TenantDef) func(pkt.TenantID) string {
	byID := make(map[pkt.TenantID]string, len(defs))
	for _, td := range defs {
		byID[td.ID] = td.Name
	}
	return func(id pkt.TenantID) string {
		if name, ok := byID[id]; ok {
			return name
		}
		return fmt.Sprintf("tenant-%d", id)
	}
}
