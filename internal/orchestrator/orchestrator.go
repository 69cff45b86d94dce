// Package orchestrator deploys a joint scheduling policy across a fabric
// of heterogeneous devices — the §5 "cross-device virtualization"
// direction: "we expect future research to propose mechanisms to
// orchestrate the scheduling virtualization from a network-wide
// perspective".
//
// Every device (leaf, spine, ...) may be a different hardware model. The
// orchestrator compiles the joint policy against each device's target
// description, builds the per-device deployment, and reports the
// network-wide guarantee for every requirement — the weakest link across
// the path, since one coarse device can reorder what every other device
// preserved.
package orchestrator

import (
	"fmt"
	"sort"
	"strings"

	"qvisor/internal/core"
	"qvisor/internal/sched"
)

// Device is one switch in the fabric.
type Device struct {
	// Name identifies the device ("leaf0").
	Name string
	// Role groups devices that share a hardware model ("leaf", "spine").
	Role string
	// Target describes the device's scheduler capabilities.
	Target core.Target
}

// DevicePlan is the compilation and deployment for one device.
type DevicePlan struct {
	Device Device
	// Plan grades the spec's requirements on this device.
	Plan *core.Plan
	// Backend is the deployment backend matching the target.
	Backend core.Backend
}

// FabricPlan is the network-wide result.
type FabricPlan struct {
	// Devices holds one plan per device, input order.
	Devices []DevicePlan
	// Guarantees is the fabric-wide (weakest-link) level per requirement
	// kind.
	Guarantees map[core.ReqKind]core.GuaranteeLevel
	// Feasible reports whether every device can realize the full spec.
	Feasible bool
	// Bottleneck names the device limiting each requirement kind.
	Bottleneck map[core.ReqKind]string
}

// Describe renders the fabric plan.
func (fp *FabricPlan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fabric: %d devices, feasible=%v\n", len(fp.Devices), fp.Feasible)
	kinds := make([]core.ReqKind, 0, len(fp.Guarantees))
	for k := range fp.Guarantees {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-20s %-12s (bottleneck: %s)\n", k, fp.Guarantees[k], fp.Bottleneck[k])
	}
	for _, dp := range fp.Devices {
		fmt.Fprintf(&b, "  device %-8s role=%-6s target=%-14s backend=%s feasible=%v\n",
			dp.Device.Name, dp.Device.Role, dp.Device.Target.Name, dp.Backend, dp.Plan.Feasible)
	}
	return b.String()
}

// Plan compiles the joint policy against every device and aggregates the
// fabric-wide guarantees.
func Plan(jp *core.JointPolicy, devices []Device) (*FabricPlan, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("orchestrator: no devices")
	}
	fp := &FabricPlan{
		Feasible:   true,
		Guarantees: make(map[core.ReqKind]core.GuaranteeLevel),
		Bottleneck: make(map[core.ReqKind]string),
	}
	seen := make(map[string]bool)
	for _, d := range devices {
		if d.Name == "" {
			return nil, fmt.Errorf("orchestrator: device with empty name")
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("orchestrator: duplicate device %q", d.Name)
		}
		seen[d.Name] = true
		plan, err := jp.CompileTo(d.Target)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: device %q: %w", d.Name, err)
		}
		fp.Devices = append(fp.Devices, DevicePlan{
			Device:  d,
			Plan:    plan,
			Backend: d.Target.DefaultBackend(),
		})
		if !plan.Feasible {
			fp.Feasible = false
		}
		// Weakest link per requirement kind.
		worst := make(map[core.ReqKind]core.GuaranteeLevel)
		for _, r := range plan.Requirements {
			if lvl, ok := worst[r.Kind]; !ok || r.Level < lvl {
				worst[r.Kind] = r.Level
			}
		}
		for kind, lvl := range worst {
			if cur, ok := fp.Guarantees[kind]; !ok || lvl < cur {
				fp.Guarantees[kind] = lvl
				fp.Bottleneck[kind] = d.Name
			}
		}
	}
	return fp, nil
}

// PlanWithProfiles is Plan with measured replay-fidelity profiles (see
// conform.ReplayReport.Profiles): each device deploys the highest-scoring
// backend among those its target can realize, instead of the target's
// DefaultBackend. Devices whose supported set intersects none of the
// profiled backends keep the default, so a partial sweep still produces a
// full fabric plan.
func PlanWithProfiles(jp *core.JointPolicy, devices []Device, profiles []core.FidelityProfile) (*FabricPlan, error) {
	fp, err := Plan(jp, devices)
	if err != nil {
		return nil, err
	}
	for i := range fp.Devices {
		supported := make(map[core.Backend]bool)
		for _, b := range fp.Devices[i].Device.Target.SupportedBackends() {
			supported[b] = true
		}
		if p, ok := core.SelectBackend(profiles, func(b core.Backend) bool { return supported[b] }); ok {
			fp.Devices[i].Backend = p.Backend
		}
	}
	return fp, nil
}

// Deploy builds the concrete scheduler for one device plan, wiring the
// drop callback. Infeasible devices deploy their best effort (the partial
// spec's shape is already encoded in the joint policy's bands).
func (dp *DevicePlan) Deploy(jp *core.JointPolicy, cfg sched.Config) (sched.Scheduler, error) {
	dep, err := jp.Deploy(dp.Backend, core.DeployOptions{
		Queues: dp.Device.Target.Queues,
		Sched:  cfg,
	})
	if err != nil {
		return nil, err
	}
	return dep.Scheduler, nil
}
