package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
)

func tenant(id pkt.TenantID, name string, lo, hi int64) *Tenant {
	return &Tenant{ID: id, Name: name, Bounds: rank.Bounds{Lo: lo, Hi: hi}}
}

func mustSynth(t *testing.T, tenants []*Tenant, spec string, opts SynthOptions) *JointPolicy {
	t.Helper()
	jp, err := Synthesize(tenants, policy.MustParse(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	return jp
}

// TestFigure3 reproduces the paper's Figure 3 exactly: operator policy
// "T1 >> T2 + T3"; T1 (pFabric) emits ranks {7,8,9}, T2 (EDF) {1,3},
// T3 (FQ) {3,5}. The synthesized transformations must map
// T1: {7,8,9}→{1,2,3},  T2: {1,3}→{4,6},  T3: {3,5}→{5,7}.
func TestFigure3(t *testing.T) {
	tenants := []*Tenant{
		{ID: 1, Name: "T1", Bounds: rank.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: rank.Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: rank.Bounds{Lo: 3, Hi: 5}, Levels: 2},
	}
	jp := mustSynth(t, tenants, "T1 >> T2 + T3", SynthOptions{Base: 1})

	cases := []struct {
		tenant pkt.TenantID
		in     []int64
		want   []int64
	}{
		{1, []int64{7, 8, 9}, []int64{1, 2, 3}},
		{2, []int64{1, 3}, []int64{4, 6}},
		{3, []int64{3, 5}, []int64{5, 7}},
	}
	for _, c := range cases {
		tr := jp.Transforms[c.tenant]
		for i, in := range c.in {
			if got := tr.Apply(in); got != c.want[i] {
				t.Errorf("tenant %d: Apply(%d) = %d, want %d", c.tenant, in, got, c.want[i])
			}
		}
	}
	if jp.Output != (rank.Bounds{Lo: 1, Hi: 7}) {
		t.Fatalf("output bounds %v, want [1,7]", jp.Output)
	}
}

func TestStrictIsolationWorstCase(t *testing.T) {
	// §2: "we can shift all the priorities from T3's scheduling policy
	// such that, even in the worst case, it does not impact the
	// performance of the other tenants." Every transformed rank of a
	// higher tier must beat every transformed rank of a lower tier, for
	// all in-bounds inputs.
	tenants := []*Tenant{
		tenant(1, "hi", 0, 1000),
		tenant(2, "mid", 0, 50),
		tenant(3, "lo", 0, 999999),
	}
	jp := mustSynth(t, tenants, "hi >> mid >> lo", SynthOptions{})
	for i := 0; i < len(jp.Tiers)-1; i++ {
		upper, lower := jp.Tiers[i].Bounds, jp.Tiers[i+1].Bounds
		if upper.Hi >= lower.Lo {
			t.Fatalf("tier %d band %v overlaps tier %d band %v", i, upper, i+1, lower)
		}
	}
	// Exhaustive check at the band edges.
	hiTr, _ := jp.TransformOf("hi")
	loTr, _ := jp.TransformOf("lo")
	if hiTr.Apply(1000) >= loTr.Apply(0) {
		t.Fatalf("worst high-tier rank %d does not beat best low-tier rank %d",
			hiTr.Apply(1000), loTr.Apply(0))
	}
}

func TestSharingFullOverlap(t *testing.T) {
	tenants := []*Tenant{
		tenant(1, "a", 0, 100),
		tenant(2, "b", 500, 900),
	}
	jp := mustSynth(t, tenants, "a + b", SynthOptions{})
	ta, _ := jp.TransformOf("a")
	tb, _ := jp.TransformOf("b")
	// Same level count, same offset, interleaved phases.
	if ta.Levels != tb.Levels || ta.Offset != tb.Offset || ta.Stride != 2 || tb.Stride != 2 {
		t.Fatalf("sharing group shape wrong: %v / %v", ta, tb)
	}
	if ta.Phase == tb.Phase {
		t.Fatal("sharing tenants must have distinct phases")
	}
	// Their output bands overlap almost completely (off by one slot).
	ba, bb := ta.OutputBounds(), tb.OutputBounds()
	if ba.Lo > bb.Hi || bb.Lo > ba.Hi {
		t.Fatalf("sharing bands disjoint: %v / %v", ba, bb)
	}
}

func TestPreferencePartialOverlap(t *testing.T) {
	tenants := []*Tenant{
		tenant(1, "pref", 0, 100),
		tenant(2, "rest", 0, 100),
	}
	jp := mustSynth(t, tenants, "pref > rest", SynthOptions{})
	tp, _ := jp.TransformOf("pref")
	tr, _ := jp.TransformOf("rest")
	bp, br := tp.OutputBounds(), tr.OutputBounds()
	// Best-effort preference: the preferred band starts strictly lower…
	if bp.Lo >= br.Lo {
		t.Fatalf("preferred band %v does not start below %v", bp, br)
	}
	// …but the bands overlap (not strict isolation).
	if bp.Hi < br.Lo {
		t.Fatalf("preference bands are disjoint (%v / %v); that is >> semantics", bp, br)
	}
}

func TestPreferenceBiasOneIsDisjoint(t *testing.T) {
	tenants := []*Tenant{
		tenant(1, "pref", 0, 100),
		tenant(2, "rest", 0, 100),
	}
	jp := mustSynth(t, tenants, "pref > rest", SynthOptions{PreferenceBias: 1.0})
	tp, _ := jp.TransformOf("pref")
	tr, _ := jp.TransformOf("rest")
	if tp.OutputBounds().Hi >= tr.OutputBounds().Lo {
		t.Fatalf("bias 1.0 should produce disjoint bands: %v / %v",
			tp.OutputBounds(), tr.OutputBounds())
	}
}

func TestPaperSpecEndToEnd(t *testing.T) {
	// The §3.1 example: T1 >> T2 > T3 + T4 >> T5.
	tenants := []*Tenant{
		tenant(1, "T1", 0, 100),
		tenant(2, "T2", 0, 100),
		tenant(3, "T3", 0, 100),
		tenant(4, "T4", 0, 100),
		tenant(5, "T5", 0, 100),
	}
	jp := mustSynth(t, tenants, "T1 >> T2 > T3 + T4 >> T5", SynthOptions{})
	if len(jp.Tiers) != 3 {
		t.Fatalf("tiers = %d, want 3", len(jp.Tiers))
	}
	get := func(name string) rank.Bounds {
		tr, ok := jp.TransformOf(name)
		if !ok {
			t.Fatalf("missing transform for %s", name)
		}
		return tr.OutputBounds()
	}
	// T1 strictly above everything.
	for _, other := range []string{"T2", "T3", "T4", "T5"} {
		if get("T1").Hi >= get(other).Lo {
			t.Errorf("T1 band %v not strictly above %s band %v", get("T1"), other, get(other))
		}
	}
	// T2..T4 strictly above T5.
	for _, upper := range []string{"T2", "T3", "T4"} {
		if get(upper).Hi >= get("T5").Lo {
			t.Errorf("%s band %v not strictly above T5 band %v", upper, get(upper), get("T5"))
		}
	}
	// T2 preferred over T3/T4: starts lower, overlaps.
	if get("T2").Lo >= get("T3").Lo {
		t.Error("T2 should start below T3")
	}
	if get("T2").Hi < get("T3").Lo {
		t.Error("T2 and T3 should overlap (best-effort preference)")
	}
}

func TestSynthesizeUsesAlgorithmBounds(t *testing.T) {
	tenants := []*Tenant{
		{ID: 1, Name: "a", Algorithm: &rank.EDF{MaxSlack: 10 * 1000 * 1000}}, // 10 ms → [0,10000] µs
		{ID: 2, Name: "b", Bounds: rank.Bounds{Lo: 0, Hi: 7}},
	}
	jp := mustSynth(t, tenants, "a + b", SynthOptions{DefaultLevels: 16})
	ta, _ := jp.TransformOf("a")
	if ta.Lo != 0 || ta.Hi != 10000 {
		t.Fatalf("algorithm bounds not used: %v", ta)
	}
	if ta.Levels != 16 {
		t.Fatalf("levels = %d, want default 16", ta.Levels)
	}
	// Narrow tenant b auto-reduces its level count to span+1 — but the
	// sharing group harmonizes both to the max, 16.
	tb, _ := jp.TransformOf("b")
	if tb.Levels != 16 {
		t.Fatalf("sharing group must harmonize levels: got %d", tb.Levels)
	}
}

func TestAutoLevelsNarrowSpan(t *testing.T) {
	tenants := []*Tenant{tenant(1, "a", 0, 3)}
	jp := mustSynth(t, tenants, "a", SynthOptions{DefaultLevels: 64})
	tr, _ := jp.TransformOf("a")
	if tr.Levels != 4 {
		t.Fatalf("narrow tenant levels = %d, want span+1 = 4", tr.Levels)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	a := tenant(1, "a", 0, 10)
	cases := []struct {
		name    string
		tenants []*Tenant
		spec    string
		opts    SynthOptions
	}{
		{"missing tenant", []*Tenant{a}, "a >> ghost", SynthOptions{}},
		{"dup names", []*Tenant{a, tenant(2, "a", 0, 5)}, "a", SynthOptions{}},
		{"dup ids", []*Tenant{a, tenant(1, "b", 0, 5)}, "a >> b", SynthOptions{}},
		{"empty name", []*Tenant{{ID: 3}}, "a", SynthOptions{}},
		{"bad bias", []*Tenant{a}, "a", SynthOptions{PreferenceBias: 2}},
		{"negative bias", []*Tenant{a}, "a", SynthOptions{PreferenceBias: -1}},
	}
	for _, c := range cases {
		if _, err := Synthesize(c.tenants, policy.MustParse(c.spec), c.opts); err == nil {
			t.Errorf("%s: Synthesize succeeded, want error", c.name)
		}
	}
	if _, err := Synthesize([]*Tenant{a}, nil, SynthOptions{}); err == nil {
		t.Error("nil spec: Synthesize succeeded, want error")
	}
	bad := &Tenant{ID: 9, Name: "bad", Bounds: rank.Bounds{Lo: 10, Hi: 5}}
	if _, err := Synthesize([]*Tenant{bad}, policy.MustParse("bad"), SynthOptions{}); err == nil {
		t.Error("inverted bounds: Synthesize succeeded, want error")
	}
	neg := &Tenant{ID: 9, Name: "neg", Bounds: rank.Bounds{Lo: 0, Hi: 5}, Levels: -1}
	if _, err := Synthesize([]*Tenant{neg}, policy.MustParse("neg"), SynthOptions{}); err == nil {
		t.Error("negative levels: Synthesize succeeded, want error")
	}
}

func TestTenantHelpers(t *testing.T) {
	tn := &Tenant{ID: 1, Name: "x", Algorithm: &rank.PFabric{}}
	if tn.AlgorithmName() != "pfabric" {
		t.Fatalf("AlgorithmName = %q", tn.AlgorithmName())
	}
	if !strings.Contains(tn.String(), "pfabric") {
		t.Fatalf("String() = %q", tn.String())
	}
	if (&Tenant{Name: "y"}).AlgorithmName() != "-" {
		t.Fatal("bounds-only tenant AlgorithmName should be -")
	}
	if _, err := (&Tenant{Name: "z"}).EffectiveBounds(); err == nil {
		t.Fatal("tenant with neither bounds nor algorithm should error")
	}
}

func TestDescribe(t *testing.T) {
	jp := mustSynth(t, []*Tenant{tenant(1, "a", 0, 10), tenant(2, "b", 0, 10)},
		"a >> b", SynthOptions{})
	d := jp.Describe()
	for _, want := range []string{"a >> b", "tier 0", "tier 1", "a", "b"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() missing %q:\n%s", want, d)
		}
	}
	if _, ok := jp.TransformOf("ghost"); ok {
		t.Fatal("TransformOf on unknown tenant should fail")
	}
}

func BenchmarkSynthesize(b *testing.B) {
	tenants := []*Tenant{
		tenant(1, "T1", 0, 1<<20),
		tenant(2, "T2", 0, 10000),
		tenant(3, "T3", 0, 1<<24),
		tenant(4, "T4", 0, 500),
		tenant(5, "T5", 0, 1<<16),
	}
	spec := policy.MustParse("T1 >> T2 > T3 + T4 >> T5")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(tenants, spec, SynthOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestJointPolicyJSONRoundTrip(t *testing.T) {
	tenants := []*Tenant{
		{ID: 1, Name: "T1", Bounds: rank.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: rank.Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: rank.Bounds{Lo: 3, Hi: 5}, Levels: 2},
	}
	jp := mustSynth(t, tenants, "T1 >> T2 + T3", SynthOptions{Base: 1})
	jp.Version = 7
	data, err := json.Marshal(jp)
	if err != nil {
		t.Fatal(err)
	}
	var back JointPolicy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.String() != jp.Spec.String() || back.Version != 7 || back.Output != jp.Output {
		t.Fatalf("metadata mismatch: %+v", back)
	}
	for id, tr := range jp.Transforms {
		if back.Transforms[id] != tr {
			t.Fatalf("transform %d mismatch: %v vs %v", id, back.Transforms[id], tr)
		}
	}
	if len(back.Tiers) != len(jp.Tiers) {
		t.Fatalf("tiers = %d", len(back.Tiers))
	}
	// The deserialized policy drives a pre-processor identically.
	pp := NewPreprocessor(&back, UnknownWorst)
	p := &pkt.Packet{Tenant: 2, Rank: 3}
	pp.Process(p)
	if p.Rank != 6 { // Figure-3 mapping
		t.Fatalf("deserialized policy transforms wrong: %d", p.Rank)
	}
}

func TestJointPolicyUnmarshalErrors(t *testing.T) {
	var jp JointPolicy
	if err := json.Unmarshal([]byte(`{bad`), &jp); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if err := json.Unmarshal([]byte(`{"spec":">>"}`), &jp); err == nil {
		t.Fatal("bad embedded spec accepted")
	}
}

// TestJointPolicyUnmarshalFailsClosed: a policy whose spec, names and
// transforms disagree is rejected, and the target is left as it was.
func TestJointPolicyUnmarshalFailsClosed(t *testing.T) {
	const tr = `{"tenant":%d,"lo":0,"hi":9,"levels":10,"stride":1,"phase":0,"offset":%d}`
	body := func(spec, names string, trs ...string) string {
		return fmt.Sprintf(`{"spec":%q,"output":[0,19],"names":{%s},"transforms":[%s]}`, spec, names, strings.Join(trs, ","))
	}
	t1, t2, t3 := fmt.Sprintf(tr, 1, 0), fmt.Sprintf(tr, 2, 10), fmt.Sprintf(tr, 3, 10)
	if err := json.Unmarshal([]byte(body("a >> b", `"a":1,"b":2`, t1, t2)), new(JointPolicy)); err != nil {
		t.Fatalf("consistent policy rejected: %v", err)
	}
	for name, in := range map[string]string{
		"spec tenant without a name": body("a >> b", `"a":1`, t1, t2),
		"name without a transform":   body("a >> b", `"a":1,"b":3`, t1, t2),
		"one label under two names":  body("a >> b", `"a":1,"b":1`, t1),
		"orphan transform":           body("a >> b", `"a":1,"b":2`, t1, t2, t3),
		"name outside the spec":      body("a >> b", `"a":1,"b":2,"c":3`, t1, t2, t3),
		"transform listed twice":     body("a >> b", `"a":1,"b":2`, t1, t2, t1),
	} {
		jp := epochTestPolicy(t, 3, 100)
		before := jp.Describe()
		if err := json.Unmarshal([]byte(in), jp); err == nil {
			t.Errorf("%s: accepted", name)
		} else if jp.Describe() != before || jp.Version != 3 {
			t.Errorf("%s: rejected (%v) but the target changed", name, err)
		}
	}
	if _, err := json.Marshal(&JointPolicy{Spec: policy.MustParse("a"), Transforms: map[pkt.TenantID]Transform{1: {}}}); err == nil {
		t.Error("a policy with a nameless spec tenant encoded")
	}
}

// TestJointPolicyUnmarshalDropsTable: decoding into a synthesized policy
// replaces its rewrite table along with its transforms.
func TestJointPolicyUnmarshalDropsTable(t *testing.T) {
	wide := epochTestPolicy(t, 1, 1000)
	data, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	jp := epochTestPolicy(t, 1, 10)
	if err := json.Unmarshal(data, jp); err != nil {
		t.Fatal(err)
	}
	p := &pkt.Packet{Tenant: 2, Rank: 500}
	NewPreprocessor(jp, UnknownWorst).Process(p)
	if want := wide.Transforms[2].Apply(500); p.Rank != want {
		t.Fatalf("decoded policy rewrites rank 500 to %d, want %d", p.Rank, want)
	}
}
