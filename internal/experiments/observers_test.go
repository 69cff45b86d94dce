package experiments

import (
	"reflect"
	"strings"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// TestExperimentsFeedObservers runs each simulator experiment outside
// Figure 4 with a watchdog sampling every flow and a registry attached:
// both must see the run, and neither may change what it computes.
func TestExperimentsFeedObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	base := ciConfig()
	base.Horizon = 10 * sim.Millisecond
	churn := func(c Config) ChurnConfig {
		cc := ScaledChurnConfig()
		cc.Config = c
		cc.Updates = 50
		return cc
	}
	for _, ex := range []struct {
		name string
		run  func(Config) (any, error)
	}{
		{"runtime", func(c Config) (any, error) { return AblationRuntime(c, 0.6) }},
		{"shift", func(c Config) (any, error) { return TrafficShift(c, 0.4) }},
		{"multi", func(c Config) (any, error) { return MultiObjective(c, 0.6) }},
		{"churn", func(c Config) (any, error) { return RunChurn(churn(c)) }},
	} {
		t.Run(ex.name, func(t *testing.T) {
			bare, err := ex.run(base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Watch = slo.New(slo.Config{SampleN: 1})
			cfg.Registry = obs.NewRegistry()
			observed, err := ex.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rev := cfg.Watch.Snapshot().Revision; rev == 0 {
				t.Error("the watchdog sampled no event")
			}
			var families []string
			for _, f := range cfg.Registry.Snapshot().Families {
				if strings.HasPrefix(f.Name, "qvisor_netsim_") {
					families = append(families, f.Name)
				}
			}
			if len(families) == 0 {
				t.Error("the registry holds no qvisor_netsim_* family")
			}
			if !reflect.DeepEqual(bare, observed) {
				t.Errorf("the observers changed the result:\n bare     %+v\n observed %+v", bare, observed)
			}
		})
	}

	// The epoch check needs every transform event, so churn refuses a
	// caller's (possibly sampled) recorder instead of ignoring it.
	cc := churn(base)
	cc.Trace = trace.NewFlightRecorder(trace.Options{})
	if _, err := RunChurn(cc); err == nil {
		t.Error("RunChurn accepted a Config.Trace it cannot feed")
	}
}
