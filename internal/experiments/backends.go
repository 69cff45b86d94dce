package experiments

import (
	"fmt"

	"qvisor/internal/core"
)

// BackendResult pairs a deployment backend with its Figure-4 measurement.
type BackendResult struct {
	Backend core.Backend
	Result  Result
}

// AblationBackends (A4) runs the QVISOR pfabric>>edf policy deployed on
// each hardware model of §3.4 — the ideal PIFO and the commodity
// approximations, every backend but the rank-blind FIFO, in enum order —
// under the same workload, quantifying what each "existing scheduler"
// costs relative to the PIFO the paper evaluates on.
func AblationBackends(cfg Config, load float64) ([]BackendResult, error) {
	var out []BackendResult
	for _, b := range core.Backends() {
		if b == core.BackendFIFO {
			continue
		}
		c := cfg
		c.Backend = b
		if c.Queues == 0 {
			c.Queues = 8
		}
		r, err := Run(c, QvisorPFabricFirst, load)
		if err != nil {
			return nil, fmt.Errorf("backend %v: %w", b, err)
		}
		out = append(out, BackendResult{Backend: b, Result: r})
	}
	return out, nil
}
