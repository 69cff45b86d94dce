package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

// Tests of the controller's one transaction (commit): the four defects the
// per-entrance roll-backs had, the id-index trap, the all-or-nothing matrix
// over every entrance and failure stage, and the allocation budget of the
// single path.

// TestCommitFailedJoinLeaveKeepSpec: a Join or Leave whose compile fails must not
// keep the rejected spec — it used to, after which every later mutation
// failed with `spec tenant "…" not registered`.
func TestCommitFailedJoinLeaveKeepSpec(t *testing.T) {
	c, _, err := NewController(ctlTenants(), policy.MustParse("A >> B"), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Spec()
	nc := &Tenant{ID: 3, Name: "C", Bounds: rank.Bounds{Lo: 0, Hi: 50}}
	// The spec names C and a tenant nobody registered.
	if err := c.Join(0, nc, policy.MustParse("A >> B >> C >> ghost")); err == nil {
		t.Fatal("join under a spec naming an unregistered tenant succeeded")
	}
	if c.Spec() != before {
		t.Fatalf("failed Join kept the rejected spec %q", c.Spec())
	}
	// The spec still names the tenant that leaves.
	if err := c.Leave(0, "B", policy.MustParse("A >> B")); err == nil {
		t.Fatal("leave under a spec that still names the tenant succeeded")
	}
	if c.Spec() != before {
		t.Fatalf("failed Leave kept the rejected spec %q", c.Spec())
	}
	if err := c.UpdateTenant(1, &Tenant{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 200}}); err != nil {
		t.Fatalf("valid update after the failed join and leave: %v", err)
	}
	if c.Version() != 2 {
		t.Fatalf("version = %d, want 2", c.Version())
	}
}

// TestCommitFailedLeaveKeepsTenantState: a Leave that fails must put the tenant
// back whole — the same monitor, still flagged, still quarantined.
func TestCommitFailedLeaveKeepsTenantState(t *testing.T) {
	c, _, err := NewController(ctlTenants(), policy.MustParse("A + B"), ControllerOptions{
		MinObservations: 10, Quarantine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Observe(2, 1_000_000)
	}
	if _, err := c.Check(0); err != nil {
		t.Fatal(err)
	}
	if !c.Flagged("B") || !c.Quarantined("B") {
		t.Fatal("premise: B should be flagged and quarantined")
	}
	mon := c.Monitor("B")
	if err := c.Leave(1, "B", policy.MustParse("A >> B")); err == nil {
		t.Fatal("leave under a spec that still names the tenant succeeded")
	}
	if c.Monitor("B") != mon {
		t.Error("failed Leave replaced or dropped the tenant's monitor")
	}
	if !c.Flagged("B") || !c.Quarantined("B") {
		t.Errorf("failed Leave lost the marks: flagged=%v quarantined=%v", c.Flagged("B"), c.Quarantined("B"))
	}
}

// TestCommitCheckQuarantineDeterministic: two tenants quarantined by one Check
// must end in the same spec, through the same events, on every controller —
// Check used to walk a Go map, and the demotion order followed it.
func TestCommitCheckQuarantineDeterministic(t *testing.T) {
	run := func() (string, []Event) {
		var events []Event
		tenants := append(ctlTenants(), &Tenant{ID: 3, Name: "C", Bounds: rank.Bounds{Lo: 0, Hi: 100}})
		c, _, err := NewController(tenants, policy.MustParse("A + B + C"), ControllerOptions{
			MinObservations: 10, Quarantine: true,
			OnEvent: func(e Event) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			c.Observe(2, 1_000_000)
			c.Observe(3, 1_000_000)
		}
		if changed, err := c.Check(7); err != nil || !changed {
			t.Fatalf("Check = %v, %v", changed, err)
		}
		return c.Spec().String(), events
	}
	spec0, events0 := run()
	if spec0 != "A >> B >> C" {
		t.Fatalf("spec = %q, want demotions in spec order", spec0)
	}
	wantKinds := []EventKind{EventAdversarial, EventAdversarial, EventResynthesized, EventQuarantined, EventQuarantined}
	if len(events0) != len(wantKinds) {
		t.Fatalf("events = %+v", events0)
	}
	for i, k := range wantKinds {
		if events0[i].Kind != k {
			t.Fatalf("event %d is %v, want %v (%+v)", i, events0[i].Kind, k, events0)
		}
	}
	for i := 1; i < 50; i++ {
		spec, events := run()
		if spec != spec0 || !reflect.DeepEqual(events, events0) {
			t.Fatalf("controller %d: spec %q events %+v; first had %q %+v", i, spec, events, spec0, events0)
		}
	}
}

// TestCommitActiveAcrossUpdate: a tenant that keeps transmitting across an
// UpdateTenant, or across a drift reset, stays active. The count Check
// compared against used to belong to the discarded monitor, so the tenant
// read as idle and §5's reallocation took its queues away.
func TestCommitActiveAcrossUpdate(t *testing.T) {
	c, _, err := NewController(ctlTenants(), policy.MustParse("A >> B"), ControllerOptions{
		MinObservations: 10, WindowSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(now sim.Time, want ...string) {
		t.Helper()
		if _, err := c.Check(now); err != nil {
			t.Fatal(err)
		}
		if got := c.ActiveTenants(); !reflect.DeepEqual(got, want) {
			t.Fatalf("active = %v, want %v", got, want)
		}
	}
	observe := func(id pkt.TenantID, n int, r int64) {
		for i := 0; i < n; i++ {
			c.Observe(id, r)
		}
	}
	observe(1, 40, 5)
	observe(2, 40, 5)
	check(0, "A", "B")
	if err := c.UpdateTenant(1, &Tenant{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 200}}); err != nil {
		t.Fatal(err)
	}
	observe(1, 5, 5) // fewer than the discarded monitor had counted
	check(2, "A")
	// Drift reset: B moves far outside its declared bounds, Check learns
	// new ones and starts a new monitor; B keeps transmitting.
	observe(2, 64, 5000)
	check(3, "B")
	observe(2, 5, 5000)
	check(4, "B")
}

// TestCommitIDIndexSurvivesLabelCollision is the trap the id index sets: an update
// that collides with another tenant's label fails at compile, and must not
// have rerouted that tenant's observations; a batch that moves a label from
// a leaving tenant to an updated one must reroute them.
func TestCommitIDIndexSurvivesLabelCollision(t *testing.T) {
	c, _, err := NewController(ctlTenants(), policy.MustParse("A >> B"), ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.UpdateTenant(0, &Tenant{ID: 2, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 100}})
	if err == nil || !strings.Contains(err.Error(), "share label") {
		t.Fatalf("update onto B's label: %v", err)
	}
	c.Observe(2, 7)
	c.Observe(1, 7)
	c.Observe(1, 7)
	if a, b := c.Monitor("A").Count(), c.Monitor("B").Count(); a != 2 || b != 1 {
		t.Fatalf("after the failed collision A counted %d and B %d, want 2 and 1", a, b)
	}
	// A takes over B's label in the batch that removes B.
	_, err = c.ApplyBatch(1, []TenantOp{
		{Kind: OpUpdate, Tenant: &Tenant{ID: 2, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 100}}},
		{Kind: OpLeave, Name: "B"},
	}, policy.MustParse("A"))
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(2, 7)
	c.Observe(1, 7) // nobody's label any more
	if n := c.Monitor("A").Count(); n != 1 {
		t.Fatalf("A's new monitor counted %d observations, want 1", n)
	}
	// Two tenants swap labels in one batch.
	if err := c.Join(2, &Tenant{ID: 1, Name: "B", Bounds: rank.Bounds{Lo: 0, Hi: 100}}, policy.MustParse("A >> B")); err != nil {
		t.Fatal(err)
	}
	_, err = c.ApplyBatch(3, []TenantOp{
		{Kind: OpUpdate, Tenant: &Tenant{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 100}}},
		{Kind: OpUpdate, Tenant: &Tenant{ID: 2, Name: "B", Bounds: rank.Bounds{Lo: 0, Hi: 100}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(1, 7)
	if a, b := c.Monitor("A").Count(), c.Monitor("B").Count(); a != 1 || b != 0 {
		t.Fatalf("after the swap label 1 reached A %d times and B %d times, want 1 and 0", a, b)
	}
}

// TestCommitCheckDoesNotWriteCallerTenant: learned bounds go onto a copy of the
// registration, not through the pointer the caller registered.
func TestCommitCheckDoesNotWriteCallerTenant(t *testing.T) {
	tenants := ctlTenants()
	c, _, err := NewController(tenants, policy.MustParse("A >> B"), ControllerOptions{
		MinObservations: 10, WindowSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		c.Observe(1, 5000+int64(i))
	}
	if changed, err := c.Check(1); err != nil || !changed {
		t.Fatalf("Check = %v, %v", changed, err)
	}
	if tenants[0].Bounds != (rank.Bounds{Lo: 0, Hi: 100}) {
		t.Fatalf("Check wrote learned bounds %v into the caller's tenant", tenants[0].Bounds)
	}
	if got, _ := c.Tenant("A"); got.Bounds.Hi < 5000 {
		t.Fatalf("registered bounds %v do not cover the observed ranks", got.Bounds)
	}
}

// ctlSnapshot is everything the all-or-nothing matrix holds still across a
// failed mutation.
type ctlSnapshot struct {
	Spec        *policy.Spec
	SpecText    string
	Version     uint64
	Tenants     []*Tenant
	Defs        []Tenant
	Monitors    map[string]*Monitor
	Counts      map[string]uint64
	Flagged     map[string]bool
	Quarantined map[string]bool
	Active      []string
	Policy      *JointPolicy
	Gen         uint64
	Generations EpochGenerations
	Metrics     string
	Events      []Event
}

func snapshotController(t *testing.T, c *Controller, reg *obs.Registry, events []Event) ctlSnapshot {
	t.Helper()
	s := ctlSnapshot{
		Spec: c.Spec(), SpecText: c.Spec().String(), Version: c.Version(),
		Tenants: c.Tenants(), Active: c.ActiveTenants(), Policy: c.Policy(),
		Gen: c.Epochs().Current().Gen, Generations: c.Epochs().Generations(),
		Monitors: map[string]*Monitor{}, Counts: map[string]uint64{},
		Flagged: map[string]bool{}, Quarantined: map[string]bool{},
		Events: append([]Event(nil), events...),
	}
	for _, tn := range s.Tenants {
		s.Defs = append(s.Defs, *tn)
	}
	for _, name := range []string{"A", "B", "C", "D", "ghost"} {
		s.Monitors[name] = c.Monitor(name)
		if m := c.Monitor(name); m != nil {
			s.Counts[name] = m.Count()
		}
		s.Flagged[name] = c.Flagged(name)
		s.Quarantined[name] = c.Quarantined(name)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "qvisor_controller_") {
			s.Metrics += line + "\n"
		}
	}
	return s
}

// diff names the fields in which two snapshots differ.
func (s ctlSnapshot) diff(o ctlSnapshot) []string {
	var out []string
	a, b := reflect.ValueOf(s), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		x, y := a.Field(i).Interface(), b.Field(i).Interface()
		same := reflect.DeepEqual(x, y)
		switch a.Type().Field(i).Name {
		case "Spec", "Policy":
			same = x == y // the very same object, not an equal one
		case "Tenants":
			same = samePointers(s.Tenants, o.Tenants)
		}
		if !same {
			out = append(out, fmt.Sprintf("%s: %+v != %+v", a.Type().Field(i).Name, x, y))
		}
	}
	for name, m := range s.Monitors {
		if o.Monitors[name] != m {
			out = append(out, "monitor of "+name+" is a different object")
		}
	}
	return out
}

func samePointers(a, b []*Tenant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCommitIsAllOrNothing runs every entrance into the controller against
// every stage a mutation can fail at, and asserts that the failed call left
// no trace — spec, version, registrations, monitors, marks, activity, epoch
// store, controller metrics, event log — and that the same call without the
// fault then advances the generation by exactly one.
//
// Each cell starts from a controller with a history: C flagged (and, where
// quarantine is on, demoted) by an earlier Check, B idle, one superseded
// epoch still pinned by an in-flight packet. The spec faults are put into
// the spec an entrance installs; for the entrances that install none
// (UpdateTenant, Check) they, the label collision and the queue shortage
// are written into objects the controller shares with its caller — the spec
// in force, a registered tenant, the deployment options — and put back
// after the call.
func TestCommitIsAllOrNothing(t *testing.T) {
	bounds := rank.Bounds{Lo: 0, Hi: 100}
	flood := func(c *Controller, id pkt.TenantID, r int64) {
		for i := 0; i < 40; i++ {
			c.Observe(id, r)
		}
	}
	// tr turns the spec an entrance means to install into the one it does.
	type transform func(*policy.Spec) *policy.Spec
	check := func(c *Controller, _ transform, _ bool) ([]error, error) {
		changed, err := c.Check(10)
		if err == nil && !changed {
			err = errors.New("Check deployed nothing")
		}
		return nil, err
	}
	entrances := []struct {
		name        string
		quarantine  bool
		carriesSpec bool
		prepare     func(c *Controller)
		call        func(c *Controller, tr transform, invalid bool) ([]error, error)
		invalidIs   error
	}{
		{name: "Join", quarantine: true, carriesSpec: true, invalidIs: ErrTenantExists,
			call: func(c *Controller, tr transform, invalid bool) ([]error, error) {
				nt := &Tenant{ID: 4, Name: "D", Bounds: bounds}
				if invalid {
					nt.Name = "A"
				}
				return nil, c.Join(10, nt, tr(policy.MustParse("A >> B + D >> C")))
			}},
		{name: "Leave", quarantine: true, carriesSpec: true, invalidIs: ErrTenantNotFound,
			call: func(c *Controller, tr transform, invalid bool) ([]error, error) {
				name := "B"
				if invalid {
					name = "ghost"
				}
				return nil, c.Leave(10, name, tr(policy.MustParse("A >> C")))
			}},
		{name: "UpdateTenant", quarantine: true, invalidIs: ErrTenantNotFound,
			call: func(c *Controller, _ transform, invalid bool) ([]error, error) {
				nt := &Tenant{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 300}}
				if invalid {
					nt.Name = "ghost"
				}
				return nil, c.UpdateTenant(10, nt)
			}},
		{name: "UpdateSpec", quarantine: true, carriesSpec: true, invalidIs: ErrBatchFailed,
			call: func(c *Controller, tr transform, invalid bool) ([]error, error) {
				if invalid {
					return nil, c.UpdateSpec(10, nil)
				}
				return nil, c.UpdateSpec(10, tr(policy.MustParse("A + B >> C")))
			}},
		{name: "ApplyBatch", quarantine: true, carriesSpec: true, invalidIs: ErrBatchFailed,
			call: func(c *Controller, tr transform, invalid bool) ([]error, error) {
				ops := []TenantOp{
					{Kind: OpJoin, Tenant: &Tenant{ID: 4, Name: "D", Bounds: bounds}},
					{Kind: OpUpdate, Tenant: &Tenant{ID: 1, Name: "A", Bounds: rank.Bounds{Lo: 0, Hi: 300}}},
					{Kind: OpLeave, Name: "B"},
				}
				if invalid {
					ops = append(ops, TenantOp{Kind: OpUpdate}, TenantOp{Kind: TenantOpKind(9)})
				}
				return c.ApplyBatch(10, ops, tr(policy.MustParse("A + D >> C")))
			}},
		{name: "Check-drift",
			prepare: func(c *Controller) { flood(c, 1, 5000) },
			call:    check},
		{name: "Check-quarantine", quarantine: true,
			prepare: func(c *Controller) { flood(c, 2, 1_000_000) },
			call:    check},
	}
	reparse := func(s *policy.Spec) *policy.Spec { return policy.MustParse(s.String()) }
	faults := []struct {
		name    string
		invalid bool
		spec    transform
		env     func(c *Controller, ed *EpochDeploy) (revert func())
		want    string
	}{
		{name: "invalid op", invalid: true},
		{name: "spec names an unregistered tenant", want: `spec tenant "ghost" not registered`,
			spec: func(s *policy.Spec) *policy.Spec {
				s = reparse(s)
				pos, _ := s.Find("C")
				s.Tiers[pos.Tier].Levels[pos.Level].Tenants[pos.Index] = "ghost"
				return s
			}},
		{name: "registered tenant missing from spec", want: `tenant "C" missing from operator spec`,
			spec: func(s *policy.Spec) *policy.Spec {
				s, err := s.Apply([]policy.Op{{Kind: policy.OpRemove, Tenant: "C"}})
				if err != nil {
					panic(err)
				}
				return s
			}},
		{name: "spec names a tenant twice", want: "more than once",
			spec: func(s *policy.Spec) *policy.Spec {
				s = reparse(s)
				s.Tiers = append(s.Tiers, policy.Tier{Levels: []policy.Level{{Tenants: []string{"C"}}}})
				return s
			}},
		{name: "duplicate tenant ID", want: "share label",
			env: func(c *Controller, _ *EpochDeploy) func() {
				tc, _ := c.Tenant("C")
				old := tc.ID
				tc.ID = 1
				return func() { tc.ID = old }
			}},
		{name: "fewer queues than tiers", want: "cannot isolate",
			env: func(_ *Controller, ed *EpochDeploy) func() {
				old := ed.Options.Queues
				ed.Options.Queues = 1
				return func() { ed.Options.Queues = old }
			}},
	}
	identity := func(s *policy.Spec) *policy.Spec { return s }

	for _, en := range entrances {
		for _, f := range faults {
			if f.invalid && en.invalidIs == nil {
				continue // Check builds its own ops
			}
			t.Run(en.name+"/"+f.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				var events []Event
				ed := &EpochDeploy{Backend: BackendSPQueues, Options: DeployOptions{Queues: 8}}
				tenants := append(ctlTenants(), &Tenant{ID: 3, Name: "C", Bounds: bounds})
				c, _, err := NewController(tenants, policy.MustParse("A >> B >> C"), ControllerOptions{
					MinObservations: 10, WindowSize: 32, Quarantine: en.quarantine,
					EpochDeploy: ed, Metrics: reg,
					OnEvent: func(e Event) { events = append(events, e) },
				})
				if err != nil {
					t.Fatal(err)
				}
				// History: generation 1 stays pinned, C turns adversarial, A
				// transmits in bounds, B is silent.
				pinned := c.Epochs().Acquire()
				defer c.Epochs().Release(pinned.Gen)
				flood(c, 3, 1_000_000)
				flood(c, 1, 50)
				if changed, err := c.Check(1); err != nil || !changed {
					t.Fatalf("history Check = %v, %v", changed, err)
				}
				if en.prepare != nil {
					en.prepare(c)
				}

				tr, revert := identity, func() {}
				switch {
				case f.spec != nil && en.carriesSpec:
					tr = f.spec
				case f.spec != nil:
					live := c.Spec()
					saved := *live
					*live = *f.spec(live)
					revert = func() { *live = saved }
				case f.env != nil:
					revert = f.env(c, ed)
				}
				before := snapshotController(t, c, reg, events)
				itemErrs, err := en.call(c, tr, f.invalid)
				if err == nil {
					t.Fatal("the faulty call succeeded")
				}
				if f.invalid && !errors.Is(err, en.invalidIs) {
					t.Errorf("invalid op: %v, want %v", err, en.invalidIs)
				}
				if !strings.Contains(err.Error(), f.want) {
					t.Errorf("error %q does not mention %q", err, f.want)
				}
				if f.invalid && en.name == "ApplyBatch" {
					if len(itemErrs) != 5 || itemErrs[0] != nil || itemErrs[1] != nil || itemErrs[2] != nil ||
						itemErrs[3] == nil || itemErrs[4] == nil {
						t.Errorf("item errors = %v", itemErrs)
					}
				}
				after := snapshotController(t, c, reg, events)
				for _, d := range before.diff(after) {
					t.Errorf("failed call left a trace: %s", d)
				}

				revert()
				if _, err := en.call(c, identity, false); err != nil {
					t.Fatalf("the same call without the fault: %v", err)
				}
				g := c.Epochs().Generations()
				if c.Epochs().Current().Gen != before.Gen+1 || c.Version() != before.Version+1 ||
					g.Published != before.Generations.Published+1 {
					t.Errorf("after the valid call: gen %d version %d published %d, want %d %d %d",
						c.Epochs().Current().Gen, c.Version(), g.Published,
						before.Gen+1, before.Version+1, before.Generations.Published+1)
				}
			})
		}
	}
}

// TestCommitQuarantineRetriesAfterFailedDeploy: when the demotion a Check decides
// on does not deploy (the extra tier needs a queue the backend lacks), the
// flag is withdrawn with everything else, so the next Check decides again
// instead of leaving the tenant flagged and in place forever.
func TestCommitQuarantineRetriesAfterFailedDeploy(t *testing.T) {
	ed := &EpochDeploy{Backend: BackendSPQueues, Options: DeployOptions{Queues: 1}}
	var events []Event
	c, _, err := NewController(ctlTenants(), policy.MustParse("A + B"), ControllerOptions{
		MinObservations: 10, Quarantine: true, EpochDeploy: ed,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Observe(2, 1_000_000)
	}
	if _, err := c.Check(1); err == nil || !strings.Contains(err.Error(), "cannot isolate") {
		t.Fatalf("Check on a one-queue backend: %v", err)
	}
	if c.Flagged("B") || c.Quarantined("B") || len(events) != 0 || c.Version() != 1 {
		t.Fatalf("failed Check left flagged=%v quarantined=%v events=%v version=%d",
			c.Flagged("B"), c.Quarantined("B"), events, c.Version())
	}
	ed.Options.Queues = 2
	if changed, err := c.Check(2); err != nil || !changed {
		t.Fatalf("retry = %v, %v", changed, err)
	}
	if !c.Quarantined("B") || c.Spec().String() != "A >> B" {
		t.Fatalf("retry did not quarantine B: spec %q", c.Spec())
	}
}

// TestAllocBudgetCtlUpdate pins what one UpdateTenant allocates on the
// controller the control_churn benchmark builds — 1024 tenants in 32 tiers
// of 32, every epoch deployed onto 64 strict-priority queues: no more
// objects than the per-entrance code it replaced (66), and no more bytes
// than the ≈165 kB an update measures, plus under 10%. The single path
// must not bring a per-update copy of the tenant set with it, nor the
// assembly a copy of every tier's compiled slots.
func TestAllocBudgetCtlUpdate(t *testing.T) {
	const (
		n, width   = 1024, 32
		maxObjects = 66
		maxBytes   = 180_000
		rounds     = 64
	)
	tenants := make([]*Tenant, n)
	var b strings.Builder
	for i := range tenants {
		tenants[i] = &Tenant{ID: pkt.TenantID(i + 1), Name: fmt.Sprintf("t%d", i),
			Bounds: rank.Bounds{Lo: 0, Hi: 65535}, Levels: 256}
		if i > 0 {
			b.WriteString(map[bool]string{true: " >> ", false: " + "}[i%width == 0])
		}
		b.WriteString(tenants[i].Name)
	}
	c, _, err := NewController(tenants, policy.MustParse(b.String()), ControllerOptions{
		EpochDeploy: &EpochDeploy{Backend: BackendSPQueues, Options: DeployOptions{Queues: 2 * n / width}},
	})
	if err != nil {
		t.Fatal(err)
	}
	updates := make([]*Tenant, rounds+8)
	for r := range updates {
		nt := *tenants[(r*131)%n]
		nt.Bounds.Hi += int64(1 + r%63)
		updates[r] = &nt
	}
	for _, u := range updates[rounds:] { // warm the tier cache and the scratch
		if err := c.UpdateTenant(0, u); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, u := range updates[:rounds] {
		if err := c.UpdateTenant(0, u); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	objects := float64(m1.Mallocs-m0.Mallocs) / rounds
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	t.Logf("UpdateTenant at %d tenants: %.1f objects, %.1f KB per update", n, objects, bytes/1024)
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("UpdateTenant allocates %.1f objects and %.0f bytes per update, budget %d and %d",
			objects, bytes, maxObjects, maxBytes)
	}
}
