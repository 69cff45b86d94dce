package core

import (
	"encoding/json"
	"fmt"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// jointPolicyJSON is the serialized form of a JointPolicy: the artifact a
// control plane ships to pre-processors (the paper's Fig. 1 arrow from the
// synthesizer to the data plane). Everything needed to execute the policy
// is value data — no rank-function code crosses the wire, only the
// synthesized transformations.
type jointPolicyJSON struct {
	Spec       string            `json:"spec"`
	Version    uint64            `json:"version"`
	Output     [2]int64          `json:"output"`
	Transforms []transformJSON   `json:"transforms"`
	Tiers      []tierPlanJSON    `json:"tiers"`
	Names      map[string]uint16 `json:"names"`
}

type transformJSON struct {
	Tenant uint16 `json:"tenant"`
	Lo     int64  `json:"lo"`
	Hi     int64  `json:"hi"`
	Levels int64  `json:"levels"`
	Stride int64  `json:"stride"`
	Phase  int64  `json:"phase"`
	Weight int64  `json:"weight,omitempty"`
	Offset int64  `json:"offset"`
}

type tierPlanJSON struct {
	Lo      int64    `json:"lo"`
	Hi      int64    `json:"hi"`
	Tenants []string `json:"tenants"`
}

// MarshalJSON implements json.Marshaler. A policy whose spec, names and
// transforms disagree (see consistent) is an error, not a partial encoding.
func (jp *JointPolicy) MarshalJSON() ([]byte, error) {
	if err := consistent(jp.Spec, jp.ByName, jp.Transforms); err != nil {
		return nil, err
	}
	out := jointPolicyJSON{
		Spec:    jp.Spec.String(),
		Version: jp.Version,
		Output:  [2]int64{jp.Output.Lo, jp.Output.Hi},
		Names:   make(map[string]uint16, len(jp.ByName)),
	}
	// Deterministic order: spec order.
	for _, name := range jp.Spec.Tenants() {
		id := jp.ByName[name]
		tr := jp.Transforms[id]
		out.Transforms = append(out.Transforms, transformJSON{
			Tenant: uint16(id), Lo: tr.Lo, Hi: tr.Hi, Levels: tr.Levels,
			Stride: tr.Stride, Phase: tr.Phase, Weight: tr.Weight, Offset: tr.Offset,
		})
		out.Names[name] = uint16(id)
	}
	for _, tp := range jp.Tiers {
		out.Tiers = append(out.Tiers, tierPlanJSON{
			Lo: tp.Bounds.Lo, Hi: tp.Bounds.Hi, Tenants: tp.Tenants,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. It fails closed: a policy
// whose spec, names and transforms disagree, or that lists one tenant's
// transform twice, is rejected and leaves jp as it was. A decoded policy
// carries no rewrite table; one is compiled from its transforms.
func (jp *JointPolicy) UnmarshalJSON(data []byte) error {
	var in jointPolicyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	spec, err := policy.Parse(in.Spec)
	if err != nil {
		return fmt.Errorf("core: joint policy spec: %w", err)
	}
	out := JointPolicy{
		Spec:       spec,
		Version:    in.Version,
		Output:     rank.Bounds{Lo: in.Output[0], Hi: in.Output[1]},
		Transforms: make(map[pkt.TenantID]Transform, len(in.Transforms)),
		ByName:     make(map[string]pkt.TenantID, len(in.Names)),
	}
	for _, tr := range in.Transforms {
		id := pkt.TenantID(tr.Tenant)
		if _, dup := out.Transforms[id]; dup {
			return fmt.Errorf("core: joint policy: two transforms for label %d", id)
		}
		out.Transforms[id] = Transform{
			Lo: tr.Lo, Hi: tr.Hi, Levels: tr.Levels,
			Stride: tr.Stride, Phase: tr.Phase, Weight: tr.Weight, Offset: tr.Offset,
		}
	}
	for name, id := range in.Names {
		out.ByName[name] = pkt.TenantID(id)
	}
	if err := consistent(out.Spec, out.ByName, out.Transforms); err != nil {
		return err
	}
	for _, tp := range in.Tiers {
		out.Tiers = append(out.Tiers, TierPlan{
			Bounds:  rank.Bounds{Lo: tp.Lo, Hi: tp.Hi},
			Tenants: tp.Tenants,
		})
	}
	*jp = out
	return nil
}

// consistent checks that a policy's spec, names and transforms describe
// the same tenants: every spec tenant has a label, no two share one, every
// label has a transform, and there are no other names or transforms.
func consistent(spec *policy.Spec, byName map[string]pkt.TenantID, transforms map[pkt.TenantID]Transform) error {
	if spec == nil {
		return fmt.Errorf("core: joint policy without a spec")
	}
	owner := make(map[pkt.TenantID]string, len(byName))
	for _, name := range spec.Tenants() {
		id, ok := byName[name]
		if !ok {
			return fmt.Errorf("core: joint policy: spec tenant %q has no label", name)
		}
		if prev, dup := owner[id]; dup {
			return fmt.Errorf("core: joint policy: tenants %q and %q share label %d", prev, name, id)
		}
		if _, ok := transforms[id]; !ok {
			return fmt.Errorf("core: joint policy: tenant %q has no transform for label %d", name, id)
		}
		owner[id] = name
	}
	if len(byName) != len(owner) || len(transforms) != len(owner) {
		return fmt.Errorf("core: joint policy: %d names and %d transforms for %d spec tenants",
			len(byName), len(transforms), len(owner))
	}
	return nil
}
