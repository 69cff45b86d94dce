package core_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

// FuzzJointPolicyJSON drives the joint-policy decoder with mutated
// documents. Every policy it accepts must build a pre-processor that
// rewrites each tenant's conform.TransformSamples ranks, and an unknown
// tenant's, without panicking, and must encode back to a document that
// decodes to an equal policy.
func FuzzJointPolicyJSON(f *testing.F) {
	jp, err := core.Synthesize([]*core.Tenant{
		{ID: 1, Name: "lat", Bounds: rank.Bounds{Lo: 0, Hi: 100}, Levels: 8},
		{ID: 40000, Name: "bulk", Bounds: rank.Bounds{Lo: -50, Hi: 1 << 40}},
		{ID: 7, Name: "web", Bounds: rank.Bounds{Lo: 5, Hi: 5}},
		{ID: 65535, Name: "bg", Bounds: rank.Bounds{Lo: 0, Hi: 1 << 16}, Levels: 64},
	}, policy.MustParse("lat >> bulk*2 + web >> bg"), core.SynthOptions{Base: 1})
	if err != nil {
		f.Fatal(err)
	}
	jp.Version = 3
	seed, err := json.Marshal(jp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"spec":"a","output":[0,9],"names":{"a":1},"transforms":[{"tenant":1,"lo":0,"hi":9,"levels":0,"stride":0,"phase":0,"offset":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in core.JointPolicy
		if err := json.Unmarshal(data, &in); err != nil {
			return
		}
		pp := core.NewPreprocessor(&in, core.UnknownWorst)
		for id, tr := range in.Transforms {
			for _, r := range conform.TransformSamples(tr) {
				pp.Process(&pkt.Packet{Tenant: id, Rank: r})
			}
		}
		pp.Process(&pkt.Packet{Tenant: pkt.NoTenant, Rank: 1})

		out, err := json.Marshal(&in)
		if err != nil {
			t.Fatalf("accepted policy does not encode: %v", err)
		}
		var back core.JointPolicy
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if back.Spec.String() != in.Spec.String() || back.Version != in.Version || back.Output != in.Output ||
			!reflect.DeepEqual(back.Transforms, in.Transforms) || !reflect.DeepEqual(back.ByName, in.ByName) ||
			!reflect.DeepEqual(back.Tiers, in.Tiers) {
			t.Fatalf("round trip changed the policy:\n in %s\nout %s", data, out)
		}
	})
}
