package experiments

import (
	"fmt"

	"qvisor/internal/core"
	"qvisor/internal/netsim"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/stats"
	"qvisor/internal/workload"
)

// AblationQuantization (A1) sweeps the synthesizer's quantization
// granularity under the sharing policy: coarse levels erase intra-tenant
// rank order (pFabric degenerates toward FIFO within its band), fine levels
// approach the unquantized joint policy. One Result per level count.
func AblationQuantization(cfg Config, levels []int64, load float64) ([]Result, error) {
	var out []Result
	for _, l := range levels {
		c := cfg
		c.Levels = l
		r, err := Run(c, QvisorShare, load)
		if err != nil {
			return nil, fmt.Errorf("levels %d: %w", l, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationQueues (A2) sweeps the number of strict-priority hardware queues
// when the joint policy deploys onto BackendSPQueues instead of a PIFO —
// the §3.4 scenario. More queues preserve more of the synthesized rank
// order; two queues only preserve tier isolation.
func AblationQueues(cfg Config, queues []int, load float64) ([]Result, error) {
	var out []Result
	for _, q := range queues {
		c := cfg
		c.Backend = core.BackendSPQueues
		c.Queues = q
		r, err := Run(c, QvisorPFabricFirst, load)
		if err != nil {
			return nil, fmt.Errorf("queues %d: %w", q, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RuntimeResult compares static synthesis against runtime adaptation (A3).
type RuntimeResult struct {
	// Static is the large-flow FCT summary with mis-declared bounds and
	// no controller. Large flows are where the mis-declaration bites:
	// every flow above the declared ceiling clamps to the same top rank,
	// so SRPT order among them is lost.
	Static stats.Summary
	// Adaptive is the same workload with the runtime controller
	// re-synthesizing from observed ranks.
	Adaptive stats.Summary
	// Resyntheses counts the controller's recompilations.
	Resyntheses uint64
}

// AblationRuntime (A3) quantifies §2's Idea 2: the pFabric tenant declares
// rank bounds that are far too narrow (as if its traffic mix had shifted
// after deployment), which collapses its quantized ranks and destroys
// intra-tenant SRPT order. The static joint policy is stuck with it; the
// event-driven controller detects the drift from the rank monitors and
// re-synthesizes with learned bounds.
func AblationRuntime(cfg Config, load float64) (RuntimeResult, error) {
	run := func(adaptive bool) (stats.Summary, uint64, error) {
		flows, cbr, pf, edf, err := cfg.traffic(load)
		if err != nil {
			return stats.Summary{}, 0, err
		}
		// The mis-declaration: pFabric claims its ranks stay below 1/1000
		// of the true domain.
		misdeclared := rank.Bounds{Lo: 0, Hi: pf.Bounds().Hi / 1000}
		tenants := []*core.Tenant{
			{ID: pfabricID, Name: "pfabric", Algorithm: pf, Bounds: misdeclared, Levels: 1 << 20},
			{ID: edfID, Name: "edf", Algorithm: edf, Levels: 1 << 20},
		}
		spec := policy.MustParse("pfabric + edf")

		ncfg := cfg.network(
			netsim.TenantDef{ID: pfabricID, Name: "pfabric", Ranker: pf, Flows: flows},
			netsim.TenantDef{ID: edfID, Name: "edf", Ranker: edf, Flows: cbr},
		)
		var ctl *core.Controller
		if adaptive {
			ctl, ncfg.Preprocessor, err = core.NewController(tenants, spec, core.ControllerOptions{
				MinObservations: 200,
				WindowSize:      512,
			})
			if err != nil {
				return stats.Summary{}, 0, err
			}
			ncfg.Controller = ctl
			ncfg.CheckInterval = cfg.Horizon / 20
		} else {
			jp, err := core.Synthesize(tenants, spec, core.SynthOptions{})
			if err != nil {
				return stats.Summary{}, 0, err
			}
			ncfg.Preprocessor = core.NewPreprocessor(jp, core.UnknownWorst)
		}
		ncfg.Preprocessor.EnableMetrics(cfg.Registry, tenantNames(ncfg.Tenants))
		n, err := netsim.New(ncfg)
		if err != nil {
			return stats.Summary{}, 0, err
		}
		n.Run()
		_, largeMin := cfg.SmallBinFor()
		large := stats.Summarize(n.FCTs().Filter(func(r stats.FlowRecord) bool {
			return r.Tenant == "pfabric" && r.Size >= largeMin
		}))
		if ctl == nil {
			return large, 0, nil
		}
		return large, ctl.Version(), nil
	}

	static, _, err := run(false)
	if err != nil {
		return RuntimeResult{}, err
	}
	adaptive, versions, err := run(true)
	if err != nil {
		return RuntimeResult{}, err
	}
	return RuntimeResult{Static: static, Adaptive: adaptive, Resyntheses: versions}, nil
}

// TrafficShiftResult is the Figure-2 scenario outcome (used by the
// trafficshift example and bench).
type TrafficShiftResult struct {
	// InteractiveFCT is the small-flow FCT of the interactive tenant
	// while the background tenant is active.
	InteractiveFCT stats.Summary
	// BackgroundFCT is the background tenant's overall FCT summary.
	BackgroundFCT stats.Summary
	// DeadlineMet is tenant 2's on-time fraction.
	DeadlineMet float64
}

// TrafficShift runs the paper's Figure-2 workload: interactive pFabric
// traffic (T1) and deadline EDF traffic (T2) sharing the high tier, with
// background fair-queued bulk transfers (T3) arriving mid-run at strictly
// lower priority ("T1 and T2 should share the resources fairly, and should
// have priority over T3").
func TrafficShift(cfg Config, load float64) (TrafficShiftResult, error) {
	interactive, deadline, pf, edf, err := cfg.traffic(load)
	if err != nil {
		return TrafficShiftResult{}, err
	}
	// Background bulk transfers start at t0 = Horizon/2 (the Figure-2
	// shift) from every host to a neighbour.
	var background []workload.FlowSpec
	bulk := int64(float64(10_000_000) * cfg.SizeScale * 10)
	for h := 0; h < cfg.hosts(); h++ {
		background = append(background, workload.FlowSpec{
			Start: cfg.Horizon / 2,
			Src:   h,
			Dst:   (h + 1) % cfg.hosts(),
			Size:  bulk,
		})
	}
	fq := rank.NewFQ()

	const bgID = 3
	coreTenants := []*core.Tenant{
		{ID: pfabricID, Name: "interactive", Algorithm: pf, Levels: 1 << 20},
		{ID: edfID, Name: "deadline", Algorithm: edf, Levels: 1 << 20},
		{ID: bgID, Name: "background", Algorithm: fq, Levels: 1 << 10},
	}
	jp, err := core.Synthesize(coreTenants, policy.MustParse("interactive + deadline >> background"),
		core.SynthOptions{})
	if err != nil {
		return TrafficShiftResult{}, err
	}
	ncfg := cfg.network(
		netsim.TenantDef{ID: pfabricID, Name: "interactive", Ranker: pf, Flows: interactive},
		netsim.TenantDef{ID: edfID, Name: "deadline", Ranker: edf, Flows: deadline},
		netsim.TenantDef{ID: bgID, Name: "background", Ranker: fq, Flows: background},
	)
	ncfg.Preprocessor = core.NewPreprocessor(jp, core.UnknownWorst)
	ncfg.Preprocessor.EnableMetrics(cfg.Registry, tenantNames(ncfg.Tenants))
	n, err := netsim.New(ncfg)
	if err != nil {
		return TrafficShiftResult{}, err
	}
	n.Run()

	smallMax, _ := cfg.SmallBinFor()
	res := TrafficShiftResult{
		InteractiveFCT: stats.Summarize(n.FCTs().Filter(func(r stats.FlowRecord) bool {
			return r.Tenant == "interactive" && r.Size > 0 && r.Size < smallMax &&
				r.Start >= cfg.Horizon/2 // while background is active
		})),
		BackgroundFCT: stats.Summarize(n.FCTs().Tenant("background")),
	}
	if c := n.Counters(); c.CBRDelivered > 0 {
		res.DeadlineMet = float64(c.CBROnTime) / float64(c.CBRDelivered)
	}
	return res, nil
}
