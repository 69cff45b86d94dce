package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/netsim"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
	"qvisor/internal/trace"
)

// Churn load test: drive a stream of control-plane spec updates against a
// live simulation and verify the RCU epoch contract holds under fire —
// every in-flight packet finishes on the generation it started under, no
// adaptation event is lost, and the data plane's throughput stays within
// a bounded distance of an update-free baseline.

// ChurnConfig parametrizes a churn run. Zero value is invalid; start from
// ScaledChurnConfig.
type ChurnConfig struct {
	// Config is the Figure-4 scenario the updates race: its topology,
	// traffic, observers and buffers. The updates are spread uniformly
	// over its Horizon, and its Seed also seeds the update sequence.
	// Trace must be nil: the epoch check records every transform itself.
	// Backend, Queues and Levels do not apply.
	Config
	// Load is the pFabric tenant's offered load fraction.
	Load float64
	// Updates is the number of control-plane updates scheduled over the
	// horizon (0 = baseline run without churn). Roughly 80% are
	// single-tenant redefinitions (bounds nudges, the incremental
	// synthesizer's fast path), 20% spec weight changes.
	Updates int
	// BulkTenants is the number of extra traffic-less tenants registered
	// with the controller to make the policy wide enough that churn is
	// interesting (they occupy lower tiers in groups of four). Zero
	// means 8.
	BulkTenants int
	// RingSize overrides the flight-recorder ring (0 = 1<<17 events).
	RingSize int
	// EpochDeploy, when true, compiles every published epoch onto
	// sp-queues so deployments ride the epoch store too.
	EpochDeploy bool
}

// ScaledChurnConfig returns a laptop-scale churn setup: ScaledConfig at a
// 50 ms horizon, load 0.6, and 250 updates — a sustained 5,000
// updates/sec against the control plane.
func ScaledChurnConfig() ChurnConfig {
	cfg := ScaledConfig()
	cfg.Horizon = 50 * sim.Millisecond
	return ChurnConfig{Config: cfg, Load: 0.6, Updates: 250, BulkTenants: 8}
}

// ChurnResult reports one churn run.
type ChurnResult struct {
	// UpdatesScheduled and UpdatesApplied count the attempted and
	// successfully compiled control-plane updates.
	UpdatesScheduled int
	UpdatesApplied   int
	// AdaptationEvents counts EventResynthesized notifications observed;
	// the epoch contract requires it to equal UpdatesApplied (plus one
	// for the initial compile counted by Generations).
	AdaptationEvents int
	// Generations is the epoch store's lifetime publish count.
	Generations uint64
	// MaxDraining is the peak number of superseded epochs still holding
	// in-flight packets, sampled at each update.
	MaxDraining int
	// DrainingAfter is the count of undrained epochs after the run (must
	// be 0: every packet released its pin).
	DrainingAfter int
	// Check is the epoch-conformance verdict over the recorded events.
	Check *conform.EpochCheck
	// Counters are the network-wide packet counters.
	Counters netsim.Counters
	// Preproc are the counters of the pre-processor the network ran the
	// pinned generations through.
	Preproc core.PreprocStats
	// Resynth are the incremental synthesizer's cache counters.
	Resynth core.ResynthStats
}

// churnSpec builds the operator spec: the two traffic tenants share the
// top tier, bulk tenants occupy lower tiers in groups of four.
func churnSpec(bulk int) (string, []string) {
	var b strings.Builder
	b.WriteString("pfabric + edf")
	names := make([]string, bulk)
	for i := 0; i < bulk; i++ {
		names[i] = fmt.Sprintf("b%d", i)
		if i%4 == 0 {
			b.WriteString(" >> ")
		} else {
			b.WriteString(" + ")
		}
		b.WriteString(names[i])
	}
	return b.String(), names
}

// RunChurn executes one churn run and returns its result. With
// cfg.Updates == 0 it is the no-churn baseline under the same epoch
// machinery.
func RunChurn(cfg ChurnConfig) (ChurnResult, error) {
	if cfg.Trace != nil {
		return ChurnResult{}, fmt.Errorf("experiments: churn records its own trace for the epoch check; Config.Trace must be nil")
	}
	if cfg.BulkTenants == 0 {
		cfg.BulkTenants = 8
	}
	pfFlows, cbrFlows, pfRanker, edfRanker, err := cfg.traffic(cfg.Load)
	if err != nil {
		return ChurnResult{}, err
	}

	specStr, bulkNames := churnSpec(cfg.BulkTenants)
	spec, err := policy.Parse(specStr)
	if err != nil {
		return ChurnResult{}, err
	}
	const levels = 1 << 12
	coreTenants := []*core.Tenant{
		{ID: pfabricID, Name: "pfabric", Algorithm: pfRanker, Levels: levels},
		{ID: edfID, Name: "edf", Algorithm: edfRanker, Levels: levels},
	}
	for i, name := range bulkNames {
		coreTenants = append(coreTenants, &core.Tenant{
			ID:     pkt.TenantID(10 + i),
			Name:   name,
			Bounds: rank.Bounds{Lo: 0, Hi: 4096},
			Levels: 64,
		})
	}

	var res ChurnResult
	opts := core.ControllerOptions{
		OnEvent: func(e core.Event) {
			if e.Kind == core.EventResynthesized {
				res.AdaptationEvents++
			}
		},
	}
	if cfg.EpochDeploy {
		opts.EpochDeploy = &core.EpochDeploy{Backend: core.BackendSPQueues}
	}
	ctl, _, err := core.NewController(coreTenants, spec, opts)
	if err != nil {
		return ChurnResult{}, err
	}
	// policies maps every published generation to its joint policy, so the
	// conformance check can replay each packet's rewrite under the
	// generation it was pinned to.
	policies := make(map[uint64]*core.JointPolicy)
	cur := ctl.Epochs().Current()
	policies[cur.Gen] = cur.Policy

	ring := cfg.RingSize
	if ring == 0 {
		ring = 1 << 17
	}
	rec := trace.NewFlightRecorder(trace.Options{
		Kinds:    []string{trace.KindTransform, trace.KindDeliver, trace.KindDrop},
		RingSize: ring,
	})

	ncfg := cfg.network(
		netsim.TenantDef{ID: pfabricID, Name: "pfabric", Ranker: pfRanker, Flows: pfFlows},
		netsim.TenantDef{ID: edfID, Name: "edf", Ranker: edfRanker, Flows: cbrFlows},
	)
	ncfg.Trace = rec
	ncfg.Epochs = ctl.Epochs()
	n, err := netsim.New(ncfg)
	if err != nil {
		return ChurnResult{}, err
	}

	// Schedule the update stream on the simulation engine so churn and
	// traffic interleave in virtual time exactly as they would against a
	// live controller.
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	interval := sim.Time(0)
	if cfg.Updates > 0 {
		interval = cfg.Horizon / sim.Time(cfg.Updates+1)
	}
	for i := 1; i <= cfg.Updates; i++ {
		i := i
		n.Engine().At(sim.Time(i)*interval, func(now sim.Time) {
			res.UpdatesScheduled++
			var err error
			if i%25 == 0 {
				// Live-tenant redefinition: widen the deadline tenant's
				// declared bounds, changing its transform — the update
				// whose disruption the epoch store bounds. Packets in
				// flight keep the old generation's rewrite.
				old, _ := ctl.Tenant("edf")
				b, berr := old.EffectiveBounds()
				if berr == nil {
					nt := *old
					nt.Bounds = rank.Bounds{Lo: b.Lo, Hi: b.Hi + int64(1+i%11)}
					err = ctl.UpdateTenant(now, &nt)
				} else {
					err = berr
				}
			} else if i%5 == 0 {
				// Structural-ish update: toggle a bulk tenant's share
				// weight, recompiling its tier.
				name := bulkNames[rng.Intn(len(bulkNames))]
				w := int64(1 + i%2)
				var next *policy.Spec
				next, err = ctl.Spec().Apply([]policy.Op{
					{Kind: policy.OpSetWeight, Tenant: name, Weight: w},
				})
				if err == nil {
					err = ctl.UpdateSpec(now, next)
				}
			} else {
				// Single-tenant redefinition: nudge one bulk tenant's
				// declared bounds. Only its tier recompiles on the
				// incremental path.
				name := bulkNames[rng.Intn(len(bulkNames))]
				old, _ := ctl.Tenant(name)
				nt := *old
				nt.Bounds = rank.Bounds{Lo: 0, Hi: 4096 + int64(i%7)}
				err = ctl.UpdateTenant(now, &nt)
			}
			if err == nil {
				res.UpdatesApplied++
				if e := ctl.Epochs().Current(); e != nil {
					policies[e.Gen] = e.Policy
				}
			}
			if d := ctl.Epochs().Draining(); d > res.MaxDraining {
				res.MaxDraining = d
			}
		})
	}

	n.Run()

	events, _ := rec.Snapshot(trace.AllEvents)
	res.Check = conform.CheckEpochs(events, policies)
	res.Counters = n.Counters()
	res.Preproc = n.PreprocStats()
	res.Generations = ctl.Epochs().Generations().Published
	res.DrainingAfter = ctl.Epochs().Draining()
	res.Resynth = ctl.ResynthStats()
	return res, nil
}

// ResynthLatency reports the incremental-vs-full synthesis comparison of
// MeasureResynthLatency.
type ResynthLatency struct {
	// Tenants and Tiers shape the measured policy.
	Tenants, Tiers int
	// Rounds is the number of single-tenant updates timed per mode.
	Rounds int
	// IncrementalNs and FullNs are the mean per-update synthesis times.
	IncrementalNs, FullNs int64
	// Speedup is FullNs / IncrementalNs.
	Speedup float64
	// Stats are the incremental synthesizer's cache counters after the
	// run.
	Stats core.ResynthStats
}

// MeasureResynthLatency times single-tenant policy updates at scale: a
// spec of nTenants across 32-wide shared tiers, each round nudging one
// tenant's bounds and recompiling — once through the incremental
// Resynthesizer, once through the full Synthesize — over the identical
// mutation sequence.
func MeasureResynthLatency(nTenants, rounds int, seed int64) (ResynthLatency, error) {
	if nTenants < 2 || rounds < 1 {
		return ResynthLatency{}, fmt.Errorf("experiments: need at least 2 tenants and 1 round")
	}
	const tierWidth = 32
	tenants := make([]*core.Tenant, nTenants)
	var b strings.Builder
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		tenants[i] = &core.Tenant{
			ID:     pkt.TenantID(i + 1),
			Name:   name,
			Bounds: rank.Bounds{Lo: 0, Hi: 65535},
			Levels: 256,
		}
		if i > 0 {
			if i%tierWidth == 0 {
				b.WriteString(" >> ")
			} else {
				b.WriteString(" + ")
			}
		}
		b.WriteString(name)
	}
	spec, err := policy.Parse(b.String())
	if err != nil {
		return ResynthLatency{}, err
	}

	// Precompute the mutation sequence so both modes replay the same
	// updates against the same tenant slices.
	rng := rand.New(rand.NewSource(seed))
	victims := make([]int, rounds)
	nudges := make([]int64, rounds)
	for r := range victims {
		victims[r] = rng.Intn(nTenants)
		nudges[r] = int64(1 + r%63)
	}
	mutate := func(ts []*core.Tenant, r int) {
		old := ts[victims[r]]
		nt := *old
		nt.Bounds = rank.Bounds{Lo: 0, Hi: 65535 + nudges[r]}
		ts[victims[r]] = &nt
	}

	opts := core.SynthOptions{}
	rs := core.NewResynthesizer(opts)
	if _, err := rs.Resynthesize(tenants, spec); err != nil {
		return ResynthLatency{}, err
	}
	incTenants := append([]*core.Tenant(nil), tenants...)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		mutate(incTenants, r)
		if _, err := rs.Resynthesize(incTenants, spec); err != nil {
			return ResynthLatency{}, err
		}
	}
	incNs := time.Since(start).Nanoseconds() / int64(rounds)

	fullTenants := append([]*core.Tenant(nil), tenants...)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		mutate(fullTenants, r)
		if _, err := core.Synthesize(fullTenants, spec, opts); err != nil {
			return ResynthLatency{}, err
		}
	}
	fullNs := time.Since(start).Nanoseconds() / int64(rounds)

	res := ResynthLatency{
		Tenants:       nTenants,
		Tiers:         (nTenants + tierWidth - 1) / tierWidth,
		Rounds:        rounds,
		IncrementalNs: incNs,
		FullNs:        fullNs,
		Stats:         rs.Stats(),
	}
	if incNs > 0 {
		res.Speedup = float64(fullNs) / float64(incNs)
	}
	return res, nil
}
