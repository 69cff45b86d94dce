package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

// exposition returns reg's Prometheus text.
func exposition(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPreprocMetricLabelsFollowMembership: a tenant that joins at runtime
// is labelled with its name, one that leaves stops counting, and an ID
// reused under a new name — after a leave, or in place within one batch —
// gets fresh handles under the new name. An update that moves no tenant
// keeps the handles it had.
func TestPreprocMetricLabelsFollowMembership(t *testing.T) {
	reg := obs.NewRegistry()
	a := &Tenant{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 100}}
	c, pp, err := NewController([]*Tenant{a}, policy.MustParse("a"), ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	send := func(id pkt.TenantID) {
		t.Helper()
		pp.Process(&pkt.Packet{Tenant: id, Rank: 5})
		pp.Flush()
	}
	want := func(lines ...string) {
		t.Helper()
		text := exposition(t, reg)
		for _, l := range lines {
			if !strings.Contains(text, l+"\n") {
				t.Fatalf("exposition lacks %q:\n%s", l, text)
			}
		}
	}

	if err := c.Join(0, &Tenant{ID: 7, Name: "newbie", Bounds: rank.Bounds{Lo: 0, Hi: 100}}, policy.MustParse("a >> newbie")); err != nil {
		t.Fatal(err)
	}
	send(7)
	want(`qvisor_preproc_processed_total{tenant="newbie"} 1`)
	if strings.Contains(exposition(t, reg), `tenant="tenant-7"`) {
		t.Fatal("a joined tenant is labelled by its ID")
	}

	handles := pp.obs
	if err := c.UpdateTenant(0, &Tenant{ID: 7, Name: "newbie", Bounds: rank.Bounds{Lo: 0, Hi: 200}}); err != nil {
		t.Fatal(err)
	}
	if pp.obs != handles {
		t.Fatal("an update that moved no tenant re-resolved the metric handles")
	}

	if err := c.Leave(0, "newbie", policy.MustParse("a")); err != nil {
		t.Fatal(err)
	}
	send(7)
	want(`qvisor_preproc_processed_total{tenant="newbie"} 1`, `qvisor_preproc_unknown_total 1`)

	if err := c.Join(0, &Tenant{ID: 7, Name: "other", Bounds: rank.Bounds{Lo: 0, Hi: 100}}, policy.MustParse("a >> other")); err != nil {
		t.Fatal(err)
	}
	if pp.obs == handles {
		t.Fatal("an ID reused under a new name kept the old handles")
	}
	send(7)
	want(`qvisor_preproc_processed_total{tenant="other"} 1`, `qvisor_preproc_processed_total{tenant="newbie"} 1`)

	// One batch hands ID 7 to a new name in the same slot: every slot holds
	// the same ID as before, but the label changed.
	handles = pp.obs
	if _, err := c.ApplyBatch(0, []TenantOp{{Kind: OpLeave, Name: "other"},
		{Kind: OpJoin, Tenant: &Tenant{ID: 7, Name: "renamed", Bounds: rank.Bounds{Lo: 0, Hi: 100}}}},
		policy.MustParse("a >> renamed")); err != nil {
		t.Fatal(err)
	}
	if pp.obs == handles {
		t.Fatal("an ID renamed in place kept the old handles")
	}
	send(7)
	want(`qvisor_preproc_processed_total{tenant="renamed"} 1`, `qvisor_preproc_processed_total{tenant="other"} 1`)
}

// updateFixture is a 1024-tenant controller in shared tiers of 32, its
// epochs deployed onto strict-priority queues, two per tier, and an
// instrumented pre-processor when reg is non-nil; update(i) issues the i-th
// single-tenant bounds update.
func updateFixture(tb testing.TB, reg *obs.Registry) (update func(i int) error) {
	tenants, spec := benchPolicy(tb, 1024)
	c, _, err := NewController(tenants, spec, ControllerOptions{
		Metrics:     reg,
		EpochDeploy: &EpochDeploy{Backend: BackendSPQueues, Options: DeployOptions{Queues: 64}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return func(i int) error {
		v := i * 37 % len(tenants)
		nt := *tenants[v]
		nt.Bounds.Hi = 65536 + int64(i%63)
		return c.UpdateTenant(sim.Time(i), &nt)
	}
}

// TestAllocBudgetControllerUpdate pins the control plane's allocation
// budget: a single-tenant update at 1024 tenants, with a registry attached
// and every epoch deployed, recompiles one tier and allocates for it, not
// for the other 992 tenants.
func TestAllocBudgetControllerUpdate(t *testing.T) {
	update := updateFixture(t, obs.NewRegistry())
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		i++
		if err := update(i); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 100 {
		t.Fatalf("UpdateTenant allocates %.0f times, want <= 100", avg)
	}
}

// BenchmarkControllerUpdate measures one single-tenant UpdateTenant at 1024
// tenants, epochs deployed onto strict-priority queues, without and with a
// metrics registry.
func BenchmarkControllerUpdate(b *testing.B) {
	for _, metrics := range []bool{false, true} {
		b.Run(map[bool]string{false: "bare", true: "metrics"}[metrics], func(b *testing.B) {
			var reg *obs.Registry
			if metrics {
				reg = obs.NewRegistry()
			}
			update := updateFixture(b, reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := update(i + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestUpdateAfterFailedBatchRewalks: a batch that re-registers a tenant
// and then fails to compile leaves nothing behind for the next update to
// read, in particular not the records its walk listed.
func TestUpdateAfterFailedBatchRewalks(t *testing.T) {
	a := &Tenant{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 100}}
	y := &Tenant{ID: 2, Name: "y", Bounds: rank.Bounds{Lo: 0, Hi: 100}}
	spec := policy.MustParse("a >> y")
	c, _, err := NewController([]*Tenant{a, y}, spec, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clash := &Tenant{ID: 1, Name: "y", Bounds: rank.Bounds{Lo: 0, Hi: 50}}
	if _, err := c.ApplyBatch(0, []TenantOp{{Kind: OpLeave, Name: "y"}, {Kind: OpJoin, Tenant: clash}}, nil); err == nil {
		t.Fatal("a batch giving y a's label compiled")
	}
	if err := c.UpdateTenant(0, &Tenant{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 200}}); err != nil {
		t.Fatalf("update after the failed batch: %v", err)
	}
	want, err := Synthesize([]*Tenant{{ID: 1, Name: "a", Bounds: rank.Bounds{Lo: 0, Hi: 200}}, y}, spec, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Policy(); !policiesEqual(got, want) {
		t.Fatalf("policy after the failed batch and an update:\n%s\nwant:\n%s", got.Describe(), want.Describe())
	}
}

// TestUpdateSeesInPlaceEdits: the objects the controller shares with its
// caller — a registered tenant from Controller.Tenant, the spec in force
// from Spec() — may be edited in place between updates. An UpdateTenant of
// a *different* tenant must then compile what a full Synthesize over the
// live tenants and the live spec compiles, byte for byte, or fail with
// its error text; and so must the update after it.
func TestUpdateSeesInPlaceEdits(t *testing.T) {
	tenant := func(c *Controller, name string) *Tenant {
		tn, ok := c.Tenant(name)
		if !ok {
			t.Fatalf("tenant %s not registered", name)
		}
		return tn
	}
	// declared is an algorithm whose declared bounds its caller may move.
	declared := &boundsRanker{}
	cases := []struct {
		name string
		// edit runs before the first update of another tenant, and again,
		// when set, before the second.
		edit, again func(c *Controller)
	}{
		{"bounds", func(c *Controller) { tenant(c, "t100").Bounds.Hi = 70_000 }, nil},
		{"inverted bounds", func(c *Controller) { tenant(c, "t100").Bounds = rank.Bounds{Lo: 10, Hi: 5} }, nil},
		{"levels", func(c *Controller) { tenant(c, "t100").Levels = 512 }, nil},
		{"negative levels", func(c *Controller) { tenant(c, "t100").Levels = -1 }, nil},
		{"fresh ID", func(c *Controller) { tenant(c, "t100").ID = 5000 }, nil},
		{"ID collision", func(c *Controller) { tenant(c, "t100").ID = 1 }, nil},
		{"renamed tenant", func(c *Controller) { tenant(c, "t100").Name = "zz" }, nil},
		{"swapped positions", func(c *Controller) {
			a, b := &c.Spec().Tiers[3].Levels[0].Tenants[4], &c.Spec().Tiers[20].Levels[0].Tenants[7]
			*a, *b = *b, *a
		}, nil},
		{"appended tier", func(c *Controller) {
			s := c.Spec()
			last := &s.Tiers[len(s.Tiers)-1].Levels[0]
			moved := last.Tenants[len(last.Tenants)-1]
			last.Tenants = last.Tenants[:len(last.Tenants)-1]
			s.Tiers = append(s.Tiers, policy.Tier{Levels: []policy.Level{{Tenants: []string{moved}}}})
		}, nil},
		{"split level", func(c *Controller) {
			tier := &c.Spec().Tiers[7]
			names := tier.Levels[0].Tenants
			tier.Levels = []policy.Level{{Tenants: names[:16]}, {Tenants: names[16:]}}
		}, nil},
		{"weights", func(c *Controller) {
			lvl := &c.Spec().Tiers[5].Levels[0]
			lvl.Weights = make([]int64, len(lvl.Tenants))
			for i := range lvl.Weights {
				lvl.Weights[i] = 1
			}
			lvl.Weights[3] = 3
		}, nil},
		{"zero weight", func(c *Controller) {
			lvl := &c.Spec().Tiers[5].Levels[0]
			lvl.Weights = make([]int64, len(lvl.Tenants))
			for i := range lvl.Weights {
				lvl.Weights[i] = 1
			}
			lvl.Weights[3] = 0
		}, nil},
		{"short weights", func(c *Controller) { c.Spec().Tiers[5].Levels[0].Weights = []int64{1} }, nil},
		{"empty level", func(c *Controller) {
			tier := &c.Spec().Tiers[5]
			tier.Levels = append(tier.Levels, policy.Level{})
		}, nil},
		{"algorithm bounds", func(c *Controller) {
			tn := tenant(c, "t100")
			declared.b = rank.Bounds{}
			tn.Bounds, tn.Algorithm = rank.Bounds{}, declared
		}, func(*Controller) { declared.b = rank.Bounds{Lo: 0, Hi: 500} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, spec := benchPolicy(t, 1024)
			c, _, err := NewController(live, spec, ControllerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			update := func(i int) {
				t.Helper()
				nt := *live[i]
				nt.Bounds.Hi += int64(7 + i)
				err := c.UpdateTenant(0, &nt)
				if err == nil {
					live[i] = &nt
				}
				want, wantErr := Synthesize(live, c.Spec(), SynthOptions{})
				switch {
				case wantErr != nil:
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("update of %s: error %v, want %v", nt.Name, err, wantErr)
					}
				case err != nil:
					t.Fatalf("update of %s: %v; a full synthesis compiles", nt.Name, err)
				default:
					got := c.Policy()
					want.Version = got.Version
					gj, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					wj, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gj, wj) {
						t.Fatalf("update of %s: policy differs from a full synthesis:\n%s\nwant:\n%s", nt.Name, got.Describe(), want.Describe())
					}
					var pp *Preprocessor
					checkTableMatchesMap(t, "update of "+nt.Name, NewEpochStore(UnknownWorst), &pp, got)
				}
			}
			update(500) // the update path is warm before the edit
			tc.edit(c)
			update(900)
			if tc.again != nil {
				tc.again(c)
			}
			update(901)
		})
	}
}

// boundsRanker is a rank.Ranker that declares the bounds it is given.
type boundsRanker struct{ b rank.Bounds }

func (r *boundsRanker) Name() string                         { return "declared" }
func (r *boundsRanker) Rank(sim.Time, *rank.Flow, int) int64 { return r.b.Lo }
func (r *boundsRanker) Bounds() rank.Bounds                  { return r.b }

// TestUpdateRecompilesOneTier: at 1024 tenants in tiers of 32, every
// single-tenant bounds edit is one call that misses one tier and hits the
// other 31.
func TestUpdateRecompilesOneTier(t *testing.T) {
	tenants, spec := benchPolicy(t, 1024)
	c, _, err := NewController(tenants, spec, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		nt := *tenants[i*97%len(tenants)]
		nt.Bounds.Hi = 65_536 + int64(i)
		want := c.ResynthStats()
		want.Calls++
		want.TierMisses++
		want.TierHits += 31
		if err := c.UpdateTenant(sim.Time(i), &nt); err != nil {
			t.Fatal(err)
		}
		if got := c.ResynthStats(); got != want {
			t.Fatalf("update %d of %s: stats %+v, want %+v", i, nt.Name, got, want)
		}
	}
}
