package experiments

import (
	"fmt"

	"qvisor/internal/netsim"
	"qvisor/internal/rank"
	"qvisor/internal/stats"
)

// ObjectiveResult pairs a rank function with its measured FCTs.
type ObjectiveResult struct {
	Name         string
	Small, Large stats.Summary
}

// MultiObjective (A5) explores §5's "multi-objective scheduling
// algorithms": the same traffic scheduled by pure fair queuing, pure
// pFabric, and a weighted composite of the two. The paper's observation —
// "Fair Queuing schemes enforce fairness, but also help in reducing FCTs,
// since they implicitly prioritize short flows" — suggests a blended
// policy can approach pFabric's small-flow FCTs while retaining FQ's
// fairness pressure on elephants.
func MultiObjective(cfg Config, load float64) ([]ObjectiveResult, error) {
	flows, _, _, _, err := cfg.traffic(load)
	if err != nil {
		return nil, err
	}
	maxFlow := int64(float64(300_000_000) * cfg.SizeScale)
	fqPart := rank.NewFQ()
	fqPart.MaxBacklog = maxFlow // common scale with pFabric
	comp, err := rank.NewComposite(1<<20,
		[]rank.Ranker{fqPart, &rank.PFabric{MaxFlowBytes: maxFlow}},
		[]float64{0.5, 0.5})
	if err != nil {
		return nil, err
	}

	var out []ObjectiveResult
	smallMax, largeMin := cfg.SmallBinFor()
	for _, o := range []struct {
		name   string
		ranker rank.Ranker
	}{
		{"fq", rank.NewFQ()},
		{"composite", comp},
		{"pfabric", &rank.PFabric{MaxFlowBytes: maxFlow}},
	} {
		n, err := netsim.New(cfg.network(netsim.TenantDef{ID: 1, Name: "t", Ranker: o.ranker, Flows: flows}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		n.Run()
		out = append(out, ObjectiveResult{
			Name: o.name,
			Small: stats.Summarize(n.FCTs().Filter(func(r stats.FlowRecord) bool {
				return r.Size > 0 && r.Size < smallMax
			})),
			Large: stats.Summarize(n.FCTs().Filter(func(r stats.FlowRecord) bool {
				return r.Size >= largeMin
			})),
		})
	}
	return out, nil
}
