package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

// refController is the reference model the controller's transaction is
// tested against: the staging ApplyBatch used before commit existed — copy
// the tenant map, validate every op against the copy, compile, and only
// then swap the copy in — over the six name-keyed maps the controller used
// to keep, with a full Synthesize for every compile. It is slow, obviously
// all-or-nothing, and shares no code with commit's journal. Its Check is
// the controller's contract written the naive way: spec order, decisions
// made on copies, marks and events applied only once the compile went
// through, `quarantined` after the `resynthesized` it caused.
type refController struct {
	opts        ControllerOptions
	spec        *policy.Spec
	tenants     map[string]*Tenant
	monitors    map[string]*Monitor
	flagged     map[string]bool
	quarantined map[string]bool
	version     uint64
	policy      *JointPolicy
	events      []Event
}

func newRefController(tenants []*Tenant, spec *policy.Spec, opts ControllerOptions) (*refController, error) {
	r := &refController{
		opts: opts.defaults(), spec: spec,
		tenants: map[string]*Tenant{}, monitors: map[string]*Monitor{},
		flagged: map[string]bool{}, quarantined: map[string]bool{},
	}
	for _, t := range tenants {
		r.tenants[t.Name] = t
	}
	jp, err := r.compile(r.tenants, spec)
	if err != nil {
		return nil, err
	}
	r.version, r.policy = 1, jp
	jp.Version = 1
	for name, t := range r.tenants {
		r.watch(name, t)
	}
	return r, nil
}

func (r *refController) watch(name string, t *Tenant) {
	if b, err := t.EffectiveBounds(); err == nil {
		r.monitors[name] = NewMonitor(b, r.opts.WindowSize)
	}
}

// compile validates a tenant set against a spec and synthesizes it in full.
func (r *refController) compile(tenants map[string]*Tenant, spec *policy.Spec) (*JointPolicy, error) {
	var list []*Tenant
	inSpec := map[string]bool{}
	for _, name := range spec.Tenants() {
		t, ok := tenants[name]
		if !ok {
			return nil, fmt.Errorf("core: spec tenant %q not registered", name)
		}
		inSpec[name] = true
		list = append(list, t)
	}
	var missing []string
	for name := range tenants {
		if !inSpec[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("core: tenant %q missing from operator spec %q", slices.Min(missing), spec)
	}
	jp, err := Synthesize(list, spec, r.opts.Synth)
	if err != nil {
		return nil, err
	}
	if ed := r.opts.EpochDeploy; ed != nil {
		if _, err := jp.Deploy(ed.Backend, ed.Options); err != nil {
			return nil, err
		}
	}
	return jp, nil
}

func (r *refController) emit(kind EventKind, tenant string, now sim.Time, detail string) {
	r.events = append(r.events, Event{Kind: kind, Tenant: tenant, At: now, Detail: detail})
}

// applyBatch is the pre-commit ApplyBatch: stage on a copy, validate, swap.
func (r *refController) applyBatch(now sim.Time, ops []TenantOp, spec *policy.Spec, reason string) ([]error, error) {
	itemErrs := make([]error, len(ops))
	if len(ops) == 0 && spec == nil {
		return itemErrs, fmt.Errorf("core: empty batch: %w", ErrBatchFailed)
	}
	staged := make(map[string]*Tenant, len(r.tenants))
	for name, t := range r.tenants {
		staged[name] = t
	}
	failed := false
	var joined, left, updated []string
	for i, op := range ops {
		switch op.Kind {
		case OpJoin:
			if op.Tenant == nil {
				itemErrs[i] = fmt.Errorf("core: join op without tenant")
			} else if _, dup := staged[op.Tenant.Name]; dup {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Tenant.Name, ErrTenantExists)
			} else {
				staged[op.Tenant.Name] = op.Tenant
				joined = append(joined, op.Tenant.Name)
			}
		case OpLeave:
			if _, ok := staged[op.Name]; !ok {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Name, ErrTenantNotFound)
			} else {
				delete(staged, op.Name)
				left = append(left, op.Name)
			}
		case OpUpdate:
			if op.Tenant == nil {
				itemErrs[i] = fmt.Errorf("core: update op without tenant")
			} else if _, ok := staged[op.Tenant.Name]; !ok {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Tenant.Name, ErrTenantNotFound)
			} else {
				staged[op.Tenant.Name] = op.Tenant
				updated = append(updated, op.Tenant.Name)
			}
		default:
			itemErrs[i] = fmt.Errorf("core: unknown op kind %v", op.Kind)
		}
		failed = failed || itemErrs[i] != nil
	}
	if failed {
		return itemErrs, fmt.Errorf("core: %w", ErrBatchFailed)
	}
	if spec == nil {
		spec = r.spec
	}
	jp, err := r.compile(staged, spec)
	if err != nil {
		return nil, err
	}
	r.tenants, r.spec = staged, spec
	r.version++
	jp.Version = r.version
	r.policy = jp
	r.emit(EventResynthesized, "", now, reason)
	for _, name := range left {
		delete(r.monitors, name)
		delete(r.flagged, name)
		delete(r.quarantined, name)
		r.emit(EventTenantLeft, name, now, "")
	}
	for _, name := range joined {
		// A tenant joined and removed by the same batch has no final state
		// to track.
		if t, ok := r.tenants[name]; ok {
			r.watch(name, t)
		}
		r.emit(EventTenantJoined, name, now, "")
	}
	for _, name := range updated {
		if t, ok := r.tenants[name]; ok {
			r.watch(name, t)
		}
	}
	return itemErrs, nil
}

func (r *refController) observe(id pkt.TenantID, rk int64) {
	for name, t := range r.tenants {
		if t.ID == id {
			if m := r.monitors[name]; m != nil {
				m.Observe(rk)
			}
			return
		}
	}
}

func (r *refController) check(now sim.Time) (bool, error) {
	var ops []TenantOp
	var flag, demote []string
	var adversarial, quarantined []Event
	spec := r.spec
	for _, name := range r.spec.Tenants() {
		m := r.monitors[name]
		if m == nil || m.Count() < r.opts.MinObservations {
			continue
		}
		flagged := r.flagged[name]
		if f := m.OutsideFraction(); f > r.opts.AdversarialFraction && !flagged {
			flagged = true
			flag = append(flag, name)
			adversarial = append(adversarial, Event{Kind: EventAdversarial, Tenant: name, At: now,
				Detail: fmt.Sprintf("%.1f%% of ranks outside declared %v", 100*f, m.Declared())})
			if r.opts.Quarantine && !r.quarantined[name] {
				spec = spec.Demote(name)
				demote = append(demote, name)
				quarantined = append(quarantined, Event{Kind: EventQuarantined, Tenant: name, At: now,
					Detail: fmt.Sprintf("demoted to dedicated bottom tier: %s", spec)})
			}
		}
		if r.quarantined[name] || (r.opts.Quarantine && flagged) {
			continue
		}
		if m.Drift() > r.opts.DriftThreshold {
			if lb, ok := m.LearnedBounds(); ok {
				t := *r.tenants[name]
				t.Bounds = lb
				ops = append(ops, TenantOp{Kind: OpUpdate, Tenant: &t})
			}
		}
	}
	changed := len(ops) > 0 || spec != r.spec
	if changed {
		log := r.events
		if _, err := r.applyBatch(now, ops, spec, "rank distribution drift"); err != nil {
			return false, err
		}
		// The adversarial events precede the resynthesized one they led to.
		r.events = append(append(append([]Event(nil), log...), adversarial...), r.events[len(log):]...)
		adversarial = nil
	}
	for _, name := range flag {
		r.flagged[name] = true
	}
	for _, name := range demote {
		r.quarantined[name] = true
	}
	r.events = append(append(r.events, adversarial...), quarantined...)
	return changed, nil
}

// tenantsInOrder returns the model's registrations in spec order.
func (r *refController) tenantsInOrder() []Tenant {
	var out []Tenant
	for _, name := range r.spec.Tenants() {
		if t, ok := r.tenants[name]; ok {
			out = append(out, *t)
		}
	}
	return out
}

// seqGen draws the random mutation sequences of the differential test.
type seqGen struct {
	rng    *rand.Rand
	nextID pkt.TenantID
}

var modelNames = []string{"a", "b", "c", "d", "e", "f", "g"}

func (g *seqGen) pick(names []string) string { return names[g.rng.Intn(len(names))] }

// tenant draws a definition for name: usually a fresh label, sometimes one
// of the small ones that collide.
func (g *seqGen) tenant(name string) *Tenant {
	id := g.nextID
	g.nextID++
	if g.rng.Intn(6) == 0 {
		id = pkt.TenantID(1 + g.rng.Intn(4))
	}
	t := &Tenant{ID: id, Name: name, Bounds: rank.Bounds{Lo: 0, Hi: int64(50 + g.rng.Intn(200))}}
	if g.rng.Intn(4) == 0 {
		t.Levels = int64(1 + g.rng.Intn(32))
	}
	return t
}

// spec draws an operator spec over names, with random structure and
// weights; one time in six it is wrong on purpose (a name dropped, an
// unregistered name added, or a name repeated).
func (g *seqGen) spec(names []string) *policy.Spec {
	names = append([]string(nil), names...)
	g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	fault := g.rng.Intn(18)
	switch {
	case fault == 0 && len(names) > 1:
		names = names[1:]
	case fault == 1:
		names = append(names, "ghost")
	}
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteString([]string{" >> ", " > ", " + ", " + "}[g.rng.Intn(4)])
		}
		b.WriteString(name)
		if g.rng.Intn(5) == 0 {
			fmt.Fprintf(&b, "*%d", 2+g.rng.Intn(3))
		}
	}
	s := policy.MustParse(b.String())
	if fault == 2 {
		s.Tiers = append(s.Tiers, policy.Tier{Levels: []policy.Level{{Tenants: []string{names[0]}}}})
	}
	return s
}

// TestCommitMatchesReferenceModel drives the controller and the reference
// model in lockstep through 200 seeded random sequences of single ops,
// batches (join and leave of one name in a batch, label collisions, nil
// tenants, unknown kinds), spec edits and Checks over random traffic, under
// random options (quarantine on or off, no deployment or strict-priority
// queues too few for every spec). After every step both must have given the
// same errors — class and text, per item — and hold the same spec, tenants,
// version, generation, event log and, byte for byte, joint policy.
func TestCommitMatchesReferenceModel(t *testing.T) {
	// tally counts outcomes, to show the sequences reach every kind.
	tally := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		g := &seqGen{rng: rand.New(rand.NewSource(seed)), nextID: 10}
		var events []Event
		opts := ControllerOptions{
			MinObservations: 6, WindowSize: 16,
			Quarantine: g.rng.Intn(2) == 0,
			OnEvent:    func(e Event) { events = append(events, e) },
		}
		if g.rng.Intn(2) == 0 {
			opts.EpochDeploy = &EpochDeploy{Backend: BackendSPQueues,
				Options: DeployOptions{Queues: 2 + g.rng.Intn(3)}}
		}
		var tenants []*Tenant
		for _, name := range modelNames[:3] {
			tenants = append(tenants, &Tenant{ID: g.nextID, Name: name, Bounds: rank.Bounds{Lo: 0, Hi: 100}})
			g.nextID++
		}
		spec := policy.MustParse("a > b + c")
		c, _, err := NewController(tenants, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefController(tenants, spec, opts)
		if err != nil {
			t.Fatal(err)
		}

		for step := 0; step < 40; step++ {
			registered := c.Spec().Tenants()
			var free []string
			for _, name := range modelNames {
				if !slices.Contains(registered, name) {
					free = append(free, name)
				}
			}
			// after is the tenant set a spec should cover once ops applied.
			after := func(ops []TenantOp) []string {
				names := append([]string(nil), registered...)
				for _, op := range ops {
					switch {
					case op.Kind == OpJoin && op.Tenant != nil && !slices.Contains(names, op.Tenant.Name):
						names = append(names, op.Tenant.Name)
					case op.Kind == OpLeave && slices.Contains(names, op.Name):
						names = slices.Delete(names, slices.Index(names, op.Name), slices.Index(names, op.Name)+1)
					}
				}
				if len(names) == 0 {
					names = []string{"ghost"}
				}
				return names
			}
			// op draws one op: mostly valid for the current set, sometimes not.
			op := func() TenantOp {
				switch k := g.rng.Intn(20); {
				case k < 5 && len(free) > 0:
					return TenantOp{Kind: OpJoin, Tenant: g.tenant(g.pick(free))}
				case k < 6:
					return TenantOp{Kind: OpJoin, Tenant: g.tenant(g.pick(registered))}
				case k < 9 && len(registered) > 1:
					return TenantOp{Kind: OpLeave, Name: g.pick(registered)}
				case k < 10:
					return TenantOp{Kind: OpLeave, Name: g.pick(modelNames)}
				case k < 17:
					t := g.tenant(g.pick(registered))
					if old, _ := c.Tenant(t.Name); g.rng.Intn(3) > 0 {
						t.ID = old.ID
					}
					return TenantOp{Kind: OpUpdate, Tenant: t}
				case k < 18:
					return TenantOp{Kind: OpUpdate, Tenant: g.tenant(g.pick(modelNames))}
				case k < 19:
					return TenantOp{Kind: TenantOpKind(g.rng.Intn(2)) * 2} // join or update, no tenant
				default:
					return TenantOp{Kind: TenantOpKind(3 + g.rng.Intn(3))}
				}
			}

			now := sim.Time(step)
			var what string
			var gotItems, wantItems []error
			var gotErr, wantErr error
			switch k := g.rng.Intn(10); {
			case k < 4: // one op through its own entrance
				o := op()
				for o.Tenant == nil && o.Kind != OpLeave {
					o = op() // the single-op entrances take their tenant for granted
				}
				switch o.Kind {
				case OpJoin:
					s := g.spec(after([]TenantOp{o}))
					what = fmt.Sprintf("Join(%v, %q)", o.Tenant, s)
					gotErr = c.Join(now, o.Tenant, s)
					wantErr = single(ref.applyBatch(now, []TenantOp{o}, s, "tenant "+o.Tenant.Name+" joined"))
				case OpLeave:
					s := g.spec(after([]TenantOp{o}))
					what = fmt.Sprintf("Leave(%s, %q)", o.Name, s)
					gotErr = c.Leave(now, o.Name, s)
					wantErr = single(ref.applyBatch(now, []TenantOp{o}, s, "tenant "+o.Name+" left"))
				default:
					what = fmt.Sprintf("UpdateTenant(%v)", o.Tenant)
					gotErr = c.UpdateTenant(now, o.Tenant)
					wantErr = single(ref.applyBatch(now, []TenantOp{o}, nil, "tenant "+o.Tenant.Name+" updated"))
				}
			case k < 7: // a batch
				ops := make([]TenantOp, g.rng.Intn(5))
				for i := range ops {
					ops[i] = op()
				}
				if len(ops) > 1 && len(free) > 0 && g.rng.Intn(4) == 0 {
					// Join and leave of one name in a batch.
					name := g.pick(free)
					ops[0] = TenantOp{Kind: OpJoin, Tenant: g.tenant(name)}
					ops[len(ops)-1] = TenantOp{Kind: OpLeave, Name: name}
				}
				var s *policy.Spec
				if len(ops) == 0 || g.rng.Intn(8) > 0 {
					s = g.spec(after(ops))
				}
				if len(ops) == 0 && g.rng.Intn(4) == 0 {
					s = nil // the empty batch
				}
				what = fmt.Sprintf("ApplyBatch(%v, %v)", ops, s)
				gotItems, gotErr = c.ApplyBatch(now, ops, s)
				wantItems, wantErr = ref.applyBatch(now, ops, s, fmt.Sprintf("batch of %d ops", len(ops)))
			case k < 8: // a spec edit
				s := g.spec(registered)
				what = fmt.Sprintf("UpdateSpec(%q)", s)
				gotErr = c.UpdateSpec(now, s)
				wantErr = single(ref.applyBatch(now, nil, s, "operator spec updated"))
			default: // traffic, then a Check
				for _, tn := range c.Tenants() {
					r := int64(g.rng.Intn(100))
					if g.rng.Intn(3) == 0 {
						r = int64(1000 + g.rng.Intn(100_000))
					}
					for i := g.rng.Intn(24); i > 0; i-- {
						c.Observe(tn.ID, r+int64(i))
						ref.observe(tn.ID, r+int64(i))
					}
				}
				what = "Check"
				var got, want bool
				got, gotErr = c.Check(now)
				want, wantErr = ref.check(now)
				if got != want {
					t.Fatalf("seed %d step %d: Check deployed=%v, model %v", seed, step, got, want)
				}
				if got {
					tally["check deployed"]++
				}
			}
			switch {
			case gotErr == nil:
				tally["applied"]++
			case what == "Check":
				tally["check failed"]++
			case errors.Is(gotErr, ErrTenantExists), errors.Is(gotErr, ErrTenantNotFound), errors.Is(gotErr, ErrBatchFailed):
				tally["op rejected"]++
			default:
				tally["compile failed"]++
			}

			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d %s: %s", seed, step, what, fmt.Sprintf(format, args...))
			}
			sameErr := func(got, want error) bool {
				if (got == nil) != (want == nil) {
					return false
				}
				if got == nil {
					return true
				}
				for _, class := range []error{ErrTenantExists, ErrTenantNotFound, ErrBatchFailed} {
					if errors.Is(got, class) != errors.Is(want, class) {
						return false
					}
				}
				return got.Error() == want.Error()
			}
			if !sameErr(gotErr, wantErr) {
				fail("error %v, model %v", gotErr, wantErr)
			}
			if len(gotItems) != len(wantItems) {
				fail("%d item errors, model %d", len(gotItems), len(wantItems))
			}
			for i := range gotItems {
				if !sameErr(gotItems[i], wantItems[i]) {
					fail("item %d error %v, model %v", i, gotItems[i], wantItems[i])
				}
			}
			if got, want := c.Spec().String(), ref.spec.String(); got != want {
				fail("spec %q, model %q", got, want)
			}
			var defs []Tenant
			for _, tn := range c.Tenants() {
				defs = append(defs, *tn)
			}
			if want := ref.tenantsInOrder(); !reflect.DeepEqual(defs, want) {
				fail("tenants %+v, model %+v", defs, want)
			}
			if c.Version() != ref.version || c.Epochs().Current().Gen != ref.version {
				fail("version %d generation %d, model %d", c.Version(), c.Epochs().Current().Gen, ref.version)
			}
			if !reflect.DeepEqual(events, ref.events) {
				n := min(len(events), len(ref.events))
				for n > 0 && !reflect.DeepEqual(events[:n], ref.events[:n]) {
					n--
				}
				fail("event logs part after %d events:\n got  %+v\n want %+v", n, events[n:], ref.events[n:])
			}
			got, err := json.Marshal(c.Policy())
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref.policy)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				fail("joint policy\n got  %s\n want %s", got, want)
			}
			for _, name := range modelNames {
				if c.Flagged(name) != ref.flagged[name] || c.Quarantined(name) != ref.quarantined[name] {
					fail("marks of %s: flagged=%v quarantined=%v, model %v %v", name,
						c.Flagged(name), c.Quarantined(name), ref.flagged[name], ref.quarantined[name])
				}
				if c.Quarantined(name) {
					tally["quarantined"]++
				}
			}
		}
	}
	t.Logf("outcomes over all steps: %v", tally)
	for _, kind := range []string{"applied", "op rejected", "compile failed", "check deployed", "check failed", "quarantined"} {
		if tally[kind] < 20 {
			t.Errorf("only %d steps ended in %q: the sequences no longer reach it", tally[kind], kind)
		}
	}
}
