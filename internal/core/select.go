package core

import "fmt"

// Replay-fidelity-driven backend selection.
//
// Universal Packet Scheduling (Mittal et al.) frames scheduler quality as
// a replay question: record the departure schedule an ideal PIFO produces,
// feed the identical arrivals to the approximation, and measure how far
// its schedule deviates. internal/conform implements that oracle and
// distills each backend's measurements into the FidelityProfile below;
// this file implements the policy side — given profiles and a device's
// capabilities, pick the backend to deploy.

// FidelityProfile summarizes one backend's measured replay fidelity and
// drop profile, aggregated over a scenario sweep (see
// conform.ReplayReport.Profiles). All per-packet figures are normalized by
// the ideal schedule's delivered-packet count, so profiles from sweeps of
// different sizes are comparable.
type FidelityProfile struct {
	// Backend is the deployment backend the profile describes.
	Backend Backend
	// ExactReplayRate is the fraction of scenarios whose delivered
	// schedule (order and drop set) exactly reproduced the ideal PIFO's.
	ExactReplayRate float64
	// InversionsPerPacket is the mean number of UPS pair inversions —
	// packet pairs delivered in the opposite relative order from the
	// ideal schedule — per delivered packet.
	InversionsPerPacket float64
	// DisplacementPerPacket is the mean |actual position − ideal
	// position| per delivered packet.
	DisplacementPerPacket float64
	// DropDivergenceRate is the fraction of offered packets delivered by
	// exactly one of {backend, ideal} — the drop-profile disagreement.
	DropDivergenceRate float64
}

// Selection weights: inversions and displacement are the two deviation
// axes of the replay test and count equally per unit; drop divergence is
// weighted heaviest because a diverging drop profile loses packets the
// ideal schedule would have delivered (an isolation violation, not a mere
// reordering); the exact-replay rate breaks ties among backends whose
// deviation measures round to equal.
const (
	weightExact        = 1.0
	weightInversions   = 1.0
	weightDisplacement = 0.5
	weightDropDiverge  = 2.0
)

// Score folds the profile into one comparable figure; higher is better.
// An exact backend (PIFO) scores 1.0; every deviation subtracts.
func (p FidelityProfile) Score() float64 {
	return weightExact*p.ExactReplayRate -
		weightInversions*p.InversionsPerPacket -
		weightDisplacement*p.DisplacementPerPacket -
		weightDropDiverge*p.DropDivergenceRate
}

// SupportedBackends lists, in enum order, the deployment backends a device
// target can realize (each backend's needs predicate in the backend
// table): every device has at least a FIFO; a sorted queue realizes the
// ideal PIFO; a bank of priority queues realizes the static SP mapping,
// the adaptive SP-PIFO, a calendar, and the FFS bucket queue (a rotating
// bucket bank, like the calendar but indexed in O(1)); an admission stage
// realizes AIFO, and combined with a queue bank the admission+scheduling
// discipline.
func (t Target) SupportedBackends() []Backend {
	var out []Backend
	for b := range backendTable {
		if backendTable[b].needs(t) {
			out = append(out, Backend(b))
		}
	}
	return out
}

// SelectBackend returns the highest-scoring profile whose backend passes
// the feasible filter (nil = all feasible). Ties break toward the lower
// enum value, so selection is deterministic for equal measurements. The
// second return is false when no profile is feasible.
func SelectBackend(profiles []FidelityProfile, feasible func(Backend) bool) (FidelityProfile, bool) {
	best := FidelityProfile{}
	found := false
	for _, p := range profiles {
		if feasible != nil && !feasible(p.Backend) {
			continue
		}
		if !found || p.Score() > best.Score() ||
			(p.Score() == best.Score() && p.Backend < best.Backend) {
			best = p
			found = true
		}
	}
	return best, found
}

// DeployBest deploys the joint policy onto the best-scoring backend the
// deployment options can realize: BackendSPQueues is feasible only when
// opts.Queues (defaulted) can isolate every strict tier; every other
// backend always deploys. Profiles typically come from a conformance
// replay sweep (conform.ReplayReport.Profiles); an empty slice is an
// error — callers without measurements should pick a backend explicitly.
func (jp *JointPolicy) DeployBest(profiles []FidelityProfile, opts DeployOptions) (*Deployment, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("core: DeployBest needs at least one fidelity profile")
	}
	queues := opts.defaults().Queues
	p, ok := SelectBackend(profiles, func(b Backend) bool {
		if b == BackendSPQueues {
			return queues >= len(jp.Tiers)
		}
		return b >= 0 && b < numBackends
	})
	if !ok {
		return nil, fmt.Errorf("core: no feasible backend among %d profiles", len(profiles))
	}
	return jp.Deploy(p.Backend, opts)
}
