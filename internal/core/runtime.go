package core

import (
	"errors"
	"fmt"
	"slices"

	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/sim"
)

// EventKind classifies controller events.
type EventKind int

const (
	// EventResynthesized: the joint policy was recompiled.
	EventResynthesized EventKind = iota
	// EventTenantJoined: a tenant was added at runtime.
	EventTenantJoined
	// EventTenantLeft: a tenant was removed at runtime.
	EventTenantLeft
	// EventAdversarial: a tenant exceeded the out-of-bounds tolerance.
	EventAdversarial
	// EventQuarantined: an adversarial tenant was demoted to a dedicated
	// lowest-priority tier.
	EventQuarantined
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventResynthesized:
		return "resynthesized"
	case EventTenantJoined:
		return "tenant-joined"
	case EventTenantLeft:
		return "tenant-left"
	case EventAdversarial:
		return "adversarial"
	case EventQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a controller notification.
type Event struct {
	Kind   EventKind
	Tenant string
	At     sim.Time
	Detail string
}

// ControllerOptions tune the runtime controller.
type ControllerOptions struct {
	// Synth are the synthesis options used at every (re)compilation.
	Synth SynthOptions
	// DriftThreshold triggers re-synthesis when any tenant's Monitor
	// drift exceeds it. Zero means 0.25.
	DriftThreshold float64
	// AdversarialFraction flags a tenant whose out-of-bounds fraction
	// exceeds it. Zero means 0.05.
	AdversarialFraction float64
	// MinObservations gates drift checks until a tenant has emitted this
	// many ranks. Zero means 256.
	MinObservations uint64
	// WindowSize is each tenant monitor's sliding window. Zero means
	// 1024.
	WindowSize int
	// Quarantine, when true, demotes tenants flagged as adversarial: the
	// joint policy is re-synthesized with the offender moved into a
	// strictly lowest-priority tier of its own, so out-of-contract ranks
	// can no longer displace compliant tenants (§2: monitoring
	// techniques to "identify such adversarial workloads ... and
	// automatically stop them").
	Quarantine bool
	// EpochDeploy, if non-nil, compiles each published epoch onto the
	// given backend so Epoch.Deployment is populated alongside the joint
	// policy. Without it epochs carry the policy only.
	EpochDeploy *EpochDeploy
	// OnEvent, if non-nil, observes controller events.
	OnEvent func(Event)
	// Metrics, if non-nil, exports controller activity (adaptation
	// events, re-synthesis count, quarantine transitions) and the
	// pre-processor's per-tenant counters (on Preprocessor.Flush) into
	// this registry; the API server serves it at GET /v1/metrics.
	Metrics *obs.Registry
}

func (o ControllerOptions) defaults() ControllerOptions {
	if o.DriftThreshold == 0 {
		o.DriftThreshold = 0.25
	}
	if o.AdversarialFraction == 0 {
		o.AdversarialFraction = 0.05
	}
	if o.MinObservations == 0 {
		o.MinObservations = 256
	}
	if o.WindowSize == 0 {
		o.WindowSize = 1024
	}
	return o
}

// Controller is QVISOR's event-driven control loop (§2, Idea 2): it holds
// the current tenant set and operator spec, watches per-tenant rank
// monitors, and re-synthesizes the joint policy when tenants join or leave
// or when observed rank distributions drift from the declared bounds —
// "similarly to how we deploy forwarding rules when a packet from a new
// flow arrives to a software-defined-networking switch".
type Controller struct {
	opts ControllerOptions
	spec *policy.Spec
	// members is the tenant set by name; byID indexes the same records by
	// packet label, as of the last generation that went live.
	members map[string]*member
	byID    map[pkt.TenantID]*member
	pp      *Preprocessor
	version uint64
	resynth *Resynthesizer
	epochs  *EpochStore
	obs     *controllerObs

	// journal and pending are the open transaction (see commit): what to
	// put back if it fails, and the events to announce once it is live.
	journal []undo
	pending []Event
	// list is the tenant set generate compiles, in spec order, as of the
	// last generation that went live (empty after a roll-back; see patch);
	// stamp marks the records a walk has seen. Both are reused across
	// compiles.
	list  []*Tenant
	stamp uint64
	// sorted is the scratch Check sorts each rank window in.
	sorted []int64
}

// member is everything the controller keeps about one registered tenant.
type member struct {
	tenant  *Tenant
	monitor *Monitor
	// flagged: the tenant exceeded the out-of-bounds tolerance;
	// quarantined: it was demoted to the bottom tier for it.
	flagged, quarantined bool
	// lastCount is the monitor's observation count at the previous Check,
	// for idle-tenant detection (§5 queue reallocation), and active what
	// that Check concluded: a tenant is active until a Check finds it silent.
	lastCount uint64
	active    bool
	// stamp and pos: see walk.
	stamp uint64
	pos   int
}

// undo is one journal entry: the record a name mapped to before a write
// (nil: none, the name was free) and the state the record was in.
type undo struct {
	name  string
	rec   *member
	saved member
}

// EpochDeploy configures per-epoch deployment (ControllerOptions).
type EpochDeploy struct {
	// Backend is the hardware model each epoch is compiled onto.
	Backend Backend
	// Options tune the deployment.
	Options DeployOptions
}

// Metric families exported by an instrumented controller.
const (
	MetricCtlResyntheses = "qvisor_controller_resyntheses_total"
	MetricCtlEvents      = "qvisor_controller_events_total"
	MetricCtlVersion     = "qvisor_controller_policy_version"
	MetricCtlTenants     = "qvisor_controller_tenants"
	MetricCtlFlagged     = "qvisor_controller_flagged_tenants"
	MetricCtlQuarantined = "qvisor_controller_quarantined_tenants"
)

// controllerObs holds the controller's registry-backed instruments. Event
// counters are pre-registered for every EventKind so the exported series
// set is stable from startup. Without a registry every instrument is nil,
// and a nil instrument ignores writes.
type controllerObs struct {
	resyntheses *obs.Counter
	events      map[EventKind]*obs.Counter
	version     *obs.Gauge
	tenants     *obs.Gauge
	flagged     *obs.Gauge
	quarantined *obs.Gauge
}

func newControllerObs(reg *obs.Registry) *controllerObs {
	o := &controllerObs{
		resyntheses: reg.Counter(MetricCtlResyntheses,
			"Joint-policy compilations performed."),
		events: make(map[EventKind]*obs.Counter),
		version: reg.Gauge(MetricCtlVersion,
			"Version of the currently deployed joint policy."),
		tenants: reg.Gauge(MetricCtlTenants,
			"Tenants currently registered."),
		flagged: reg.Gauge(MetricCtlFlagged,
			"Tenants currently flagged as adversarial."),
		quarantined: reg.Gauge(MetricCtlQuarantined,
			"Tenants currently demoted to the bottom tier."),
	}
	for _, k := range []EventKind{
		EventResynthesized, EventTenantJoined, EventTenantLeft,
		EventAdversarial, EventQuarantined,
	} {
		o.events[k] = reg.Counter(MetricCtlEvents,
			"Controller adaptation events by kind.", obs.L("kind", k.String()))
	}
	return o
}

// Typed sentinel errors reported by the mutations, so callers (notably
// the API server) can map failures to status codes with errors.Is instead
// of string matching.
var (
	// ErrTenantExists: Join with a name that is already registered.
	ErrTenantExists = errors.New("tenant already present")
	// ErrTenantNotFound: Leave (or a lookup) named an unknown tenant.
	ErrTenantNotFound = errors.New("tenant not present")
	// ErrBatchFailed wraps ApplyBatch failures caused by individual
	// operations; the per-item errors carry the detail.
	ErrBatchFailed = errors.New("batch mutation failed")
)

// NewController compiles the initial joint policy and returns the
// controller together with the pre-processor executing it. The tenants are
// staged like a batch of joins: a nil or twice-named one is an error.
func NewController(tenants []*Tenant, spec *policy.Spec, opts ControllerOptions) (*Controller, *Preprocessor, error) {
	opts = opts.defaults()
	c := &Controller{
		opts:    opts,
		members: make(map[string]*member, len(tenants)),
		byID:    make(map[pkt.TenantID]*member, len(tenants)),
		resynth: NewResynthesizer(opts.Synth),
		epochs:  NewEpochStore(UnknownWorst),
		obs:     newControllerObs(opts.Metrics),
	}
	for _, t := range tenants {
		if err := c.stage(TenantOp{Kind: OpJoin, Tenant: t}); err != nil {
			return nil, nil, err
		}
	}
	e, err := c.generate(spec)
	if err != nil {
		return nil, nil, err
	}
	c.settle()
	c.pp = e.Preprocessor()
	c.pp.EnableMetrics(opts.Metrics, c.tenantName)
	return c, c.pp, nil
}

// Registry returns the metrics registry the controller was built with, or
// nil when uninstrumented. The API server exposes it at GET /v1/metrics.
func (c *Controller) Registry() *obs.Registry { return c.opts.Metrics }

// tenantName maps a tenant ID back to its registered name for metric
// labels; unregistered IDs fall back to a synthetic name.
func (c *Controller) tenantName(id pkt.TenantID) string {
	if m := c.byID[id]; m != nil {
		return m.tenant.Name
	}
	return fmt.Sprintf("tenant-%d", id)
}

// lookup returns a copy of the named tenant's record, zero when unregistered.
func (c *Controller) lookup(name string) member {
	if m := c.members[name]; m != nil {
		return *m
	}
	return member{}
}

// Policy returns the currently deployed joint policy.
func (c *Controller) Policy() *JointPolicy { return c.pp.Policy() }

// Version returns the number of compilations performed.
func (c *Controller) Version() uint64 { return c.version }

// Monitor returns the rank monitor for a tenant name, or nil.
func (c *Controller) Monitor(name string) *Monitor { return c.lookup(name).monitor }

// Observe records a rank emitted by a tenant (before transformation). The
// simulator calls this from the pre-processor path.
func (c *Controller) Observe(tenant pkt.TenantID, r int64) {
	if m := c.byID[tenant]; m != nil && m.monitor != nil {
		m.monitor.Observe(r)
	}
}

// generate makes the next policy generation out of the current tenant set
// and the given spec: the one compile → deploy → publish sequence. The spec
// is installed and the version assigned once nothing can fail any more, so
// an error leaves both, the counters and the epoch store as they were.
func (c *Controller) generate(spec *policy.Spec) (*Epoch, error) {
	jp, ok, err := c.patch(spec)
	if !ok {
		if err := c.walk(spec); err != nil {
			return nil, err
		}
		jp, err = c.resynth.Resynthesize(c.list, spec)
	}
	if err != nil {
		return nil, err
	}
	var d *Deployment
	if ed := c.opts.EpochDeploy; ed != nil {
		if d, err = jp.Deploy(ed.Backend, ed.Options); err != nil {
			return nil, err
		}
	}
	c.spec = spec
	c.version++
	jp.Version = c.version
	c.obs.resyntheses.Inc()
	return c.epochs.Publish(jp, d), nil
}

// walk lists the tenants in spec order into c.list, and notes each
// record's position in it. Each record the spec names is stamped, so a
// registered tenant it leaves out shows as a stale stamp.
func (c *Controller) walk(spec *policy.Spec) error {
	c.stamp++
	list, named := c.list[:0], 0
	for _, tier := range spec.Tiers {
		for _, lvl := range tier.Levels {
			for _, name := range lvl.Tenants {
				m := c.members[name]
				if m == nil {
					return fmt.Errorf("core: spec tenant %q not registered", name)
				}
				if m.stamp != c.stamp {
					m.stamp = c.stamp
					named++
				}
				m.pos = len(list)
				list = append(list, m.tenant)
			}
		}
	}
	c.list = list
	if named != len(c.members) {
		var missing []string
		for name, m := range c.members {
			if m.stamp != c.stamp {
				missing = append(missing, name)
			}
		}
		return fmt.Errorf("core: tenant %q missing from operator spec %q", slices.Min(missing), spec)
	}
	return nil
}

// patch is walk's shortcut for a transaction that only rewrote records
// already registered: no op joined a name (a join journals no record) and
// the member count is the last live walk's (so none left), so every record
// is still at the position that walk gave it, and re-pointing the written
// records' positions brings c.list up to date in O(ops). Whether the spec
// still names the same tenants at every position is checked by the
// resynthesizer, in the pass that compiles. It reports false, having
// decided nothing, on any other transaction or spec; the full walk then
// runs.
func (c *Controller) patch(spec *policy.Spec) (*JointPolicy, bool, error) {
	if len(c.list) == 0 || len(c.list) != len(c.members) {
		return nil, false, nil
	}
	for _, u := range c.journal {
		if u.rec == nil {
			return nil, false, nil
		}
	}
	for _, u := range c.journal {
		c.list[u.rec.pos] = u.rec.tenant
	}
	return c.resynth.resynthesize(c.list, spec, true)
}

// stage applies one op to the tenant set in place, journaling what it
// overwrites. A rejected op changes nothing.
func (c *Controller) stage(op TenantOp) error {
	switch op.Kind {
	case OpJoin, OpUpdate:
		t := op.Tenant
		if t == nil {
			return fmt.Errorf("core: %v op without tenant", op.Kind)
		}
		m := c.members[t.Name]
		switch {
		case op.Kind == OpJoin && m != nil:
			return fmt.Errorf("core: tenant %q: %w", t.Name, ErrTenantExists)
		case op.Kind == OpUpdate && m == nil:
			return fmt.Errorf("core: tenant %q: %w", t.Name, ErrTenantNotFound)
		case m == nil:
			c.journal = append(c.journal, undo{name: t.Name})
			m = &member{active: true}
			c.members[t.Name] = m
		default:
			c.journal = append(c.journal, undo{t.Name, m, *m})
		}
		// The monitor and the count Check compares it against start
		// together, so a transmitting tenant never reads as idle against
		// the discarded monitor's count.
		m.tenant, m.monitor, m.lastCount = t, nil, 0
		if b, err := t.EffectiveBounds(); err == nil {
			m.monitor = NewMonitor(b, c.opts.WindowSize)
		}
	case OpLeave:
		m := c.members[op.Name]
		if m == nil {
			return fmt.Errorf("core: tenant %q: %w", op.Name, ErrTenantNotFound)
		}
		// One delete drops the monitor, the marks and the activity state.
		c.journal = append(c.journal, undo{op.Name, m, *m})
		delete(c.members, op.Name)
	default:
		return fmt.Errorf("core: unknown op kind %v", op.Kind)
	}
	return nil
}

// commit is the controller's one mutation path, and a transaction: it
// applies ops to the tenant set in place (journaled, so the cost follows the
// ops, not the tenant count), installs spec when non-nil, and makes the next
// generation. If an op is invalid, the spec and the tenant set disagree, or
// synthesis or deployment fails, every registration, the spec and all
// per-tenant state go back to what they were, no version is assigned and
// nothing is emitted: events go out only once the new generation is live.
// It returns what ApplyBatch documents.
func (c *Controller) commit(now sim.Time, ops []TenantOp, spec *policy.Spec, reason string) ([]error, error) {
	itemErrs := make([]error, len(ops))
	var err error
	if len(ops) == 0 && spec == nil {
		err = fmt.Errorf("core: empty batch: %w", ErrBatchFailed)
	}
	for i, op := range ops {
		if itemErrs[i] = c.stage(op); itemErrs[i] != nil {
			err = fmt.Errorf("core: %w", ErrBatchFailed)
		}
	}
	if err != nil {
		c.rollback()
		return itemErrs, err
	}
	if spec == nil {
		spec = c.spec
	}
	if _, err := c.generate(spec); err != nil {
		// The batch staged fine but did not compile: no item is at fault.
		c.rollback()
		return nil, err
	}
	c.pending = append(c.pending, Event{Kind: EventResynthesized, At: now, Detail: reason})
	// A tenant joined and removed by the same batch has no final state to
	// track; the membership events still tell the story.
	for _, op := range ops {
		if op.Kind == OpLeave {
			c.pending = append(c.pending, Event{Kind: EventTenantLeft, Tenant: op.Name, At: now})
		}
	}
	for _, op := range ops {
		if op.Kind == OpJoin {
			c.pending = append(c.pending, Event{Kind: EventTenantJoined, Tenant: op.Tenant.Name, At: now})
		}
	}
	c.settle()
	return itemErrs, nil
}

// single reports the outcome of a one-op commit: the op's own error in
// place of the batch wrapper's.
func single(itemErrs []error, err error) error {
	if len(itemErrs) > 0 && itemErrs[0] != nil {
		return itemErrs[0]
	}
	return err
}

// rollback ends a transaction that failed: the journal is undone newest
// first, so a name written twice ends on its oldest record, the pending
// events are dropped, and the list the transaction walked or patched no
// longer counts.
func (c *Controller) rollback() {
	c.list = c.list[:0]
	for i := len(c.journal) - 1; i >= 0; i-- {
		if u := c.journal[i]; u.rec == nil {
			delete(c.members, u.name)
		} else {
			*u.rec = u.saved
			c.members[u.name] = u.rec
		}
	}
	c.end()
}

// end closes the transaction, letting go of the records it referenced.
func (c *Controller) end() {
	clear(c.journal)
	c.journal, c.pending = c.journal[:0], c.pending[:0]
}

// settle ends a transaction that went through: the id index catches up
// with the journaled names, the pre-processor is pinned to the live
// generation (after the index, which its metric labels read), the gauges
// refresh, the pending events go out. The index moves only here and in two
// passes — every label a written record owned is released before any final
// label is claimed — so a failed transaction never touches it, and an
// update onto another tenant's label, which the compile rejects, cannot
// clobber that tenant's entry.
func (c *Controller) settle() {
	for _, u := range c.journal {
		if u.rec != nil && c.byID[u.saved.tenant.ID] == u.rec {
			delete(c.byID, u.saved.tenant.ID)
		}
	}
	for _, u := range c.journal {
		if m := c.members[u.name]; m != nil {
			c.byID[m.tenant.ID] = m
		}
	}
	if c.pp != nil {
		c.pp.Pin(c.epochs.Current())
	}
	if c.opts.Metrics != nil {
		var flagged, quarantined int
		for _, m := range c.members {
			if m.flagged {
				flagged++
			}
			if m.quarantined {
				quarantined++
			}
		}
		c.obs.version.Set(float64(c.version))
		c.obs.tenants.Set(float64(len(c.members)))
		c.obs.flagged.Set(float64(flagged))
		c.obs.quarantined.Set(float64(quarantined))
	}
	for _, e := range c.pending {
		c.obs.events[e.Kind].Inc()
		if c.opts.OnEvent != nil {
			c.opts.OnEvent(e)
		}
	}
	c.end()
}

// Join adds a tenant at runtime, updates the operator spec, and
// re-synthesizes.
func (c *Controller) Join(now sim.Time, t *Tenant, spec *policy.Spec) error {
	return single(c.commit(now, []TenantOp{{Kind: OpJoin, Tenant: t}}, spec, "tenant "+t.Name+" joined"))
}

// Leave removes a tenant at runtime, updates the operator spec, and
// re-synthesizes.
func (c *Controller) Leave(now sim.Time, name string, spec *policy.Spec) error {
	return single(c.commit(now, []TenantOp{{Kind: OpLeave, Name: name}}, spec, "tenant "+name+" left"))
}

// UpdateTenant replaces a registered tenant's definition (bounds,
// algorithm, levels — the name must match an existing tenant and the ID
// must stay unique) and re-synthesizes. The previous definition is
// restored on failure.
func (c *Controller) UpdateTenant(now sim.Time, t *Tenant) error {
	return single(c.commit(now, []TenantOp{{Kind: OpUpdate, Tenant: t}}, nil, "tenant "+t.Name+" updated"))
}

// UpdateSpec replaces the operator specification over the existing tenant
// set and re-synthesizes. The previous spec is restored on failure.
func (c *Controller) UpdateSpec(now sim.Time, spec *policy.Spec) error {
	return single(c.commit(now, nil, spec, "operator spec updated"))
}

// ApplyBatch applies a set of tenant mutations and one spec replacement
// as a single transaction: either every operation validates and the
// whole batch compiles into ONE new policy generation, or nothing
// changes. The returned slice has one entry per op (nil on success);
// when any entry is non-nil the batch was not applied and the error
// wraps ErrBatchFailed. Item errors wrap ErrTenantExists /
// ErrTenantNotFound so callers can classify them.
func (c *Controller) ApplyBatch(now sim.Time, ops []TenantOp, spec *policy.Spec) ([]error, error) {
	return c.commit(now, ops, spec, fmt.Sprintf("batch of %d ops", len(ops)))
}

// Check runs one control-loop iteration: flags (and optionally
// quarantines) adversarial tenants, and re-synthesizes with learned bounds
// when a tenant's rank distribution has drifted. It returns true when a
// new joint policy was deployed. Its own writes ride the journal of the
// commit it ends in, so a Check whose policy change fails did not happen:
// its marks are cleared and the next Check retries. Tenants are visited in
// spec order, so the resulting spec and event sequence are deterministic.
func (c *Controller) Check(now sim.Time) (bool, error) {
	var ops []TenantOp
	var demoted []Event
	spec := c.spec
	for _, tier := range c.spec.Tiers {
		for _, lvl := range tier.Levels {
			for _, name := range lvl.Tenants {
				m := c.members[name]
				if m == nil || m.monitor == nil {
					continue
				}
				// Activity between checks drives the §5 queue-reallocation
				// decision: a tenant that emitted nothing since the last check
				// is considered idle. A record is journaled before Check's
				// first write to it, so one it leaves alone costs nothing.
				n := m.monitor.Count()
				journaled := false
				if active := n > m.lastCount; active != m.active || n != m.lastCount {
					c.journal = append(c.journal, undo{name, m, *m})
					m.active, m.lastCount, journaled = active, n, true
				}
				if n < c.opts.MinObservations {
					continue
				}
				if f := m.monitor.OutsideFraction(); f > c.opts.AdversarialFraction && !m.flagged {
					if !journaled {
						c.journal = append(c.journal, undo{name, m, *m})
					}
					m.flagged = true
					detail := fmt.Sprintf("%.1f%% of ranks outside declared %v", 100*f, m.monitor.Declared())
					c.pending = append(c.pending, Event{Kind: EventAdversarial, Tenant: name, At: now, Detail: detail})
					if c.opts.Quarantine && !m.quarantined {
						spec = spec.Demote(name)
						m.quarantined = true
						// Announced once the generation that demotes it is live.
						detail = fmt.Sprintf("demoted to dedicated bottom tier: %s", spec)
						demoted = append(demoted, Event{Kind: EventQuarantined, Tenant: name, At: now, Detail: detail})
					}
				}
				// Quarantined tenants keep their declared bounds: learning from
				// an adversary would let it steer the policy.
				if m.quarantined || (c.opts.Quarantine && m.flagged) {
					continue
				}
				// Drift and the learned bounds read one summary of the window.
				s, sorted, ok := m.monitor.snapshot(c.sorted)
				c.sorted = sorted
				if ok && m.monitor.drift(s) > c.opts.DriftThreshold {
					// On a copy: the registered definition is the caller's.
					t := *m.tenant
					t.Bounds = learned(s)
					ops = append(ops, TenantOp{Kind: OpUpdate, Tenant: &t})
				}
			}
		}
	}
	if len(ops) == 0 && spec == c.spec {
		c.settle()
		return false, nil
	}
	if _, err := c.commit(now, ops, spec, "rank distribution drift"); err != nil {
		return false, err
	}
	c.pending = append(c.pending, demoted...)
	c.settle()
	return true, nil
}

// Quarantined reports whether a tenant has been demoted to the bottom
// tier.
func (c *Controller) Quarantined(name string) bool { return c.lookup(name).quarantined }

// ActiveTenants returns the tenants that emitted at least one rank between
// the two most recent Check calls, in spec order. Before the first Check
// every tenant is considered active. Feed the result to
// JointPolicy.DeploySPActive to reallocate hardware queues away from idle
// tenants (§5).
func (c *Controller) ActiveTenants() []string {
	var out []string
	for _, name := range c.spec.Tenants() {
		if c.lookup(name).active {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		// Nothing transmitted at all: treat everyone as active rather
		// than deploying an empty allocation.
		return c.spec.Tenants()
	}
	return out
}

// Flagged reports whether a tenant has been flagged as adversarial.
func (c *Controller) Flagged(name string) bool { return c.lookup(name).flagged }

// Spec returns the operator specification currently in force.
func (c *Controller) Spec() *policy.Spec { return c.spec }

// Tenants returns the registered tenants in spec order.
func (c *Controller) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(c.members))
	for _, name := range c.spec.Tenants() {
		if t, ok := c.Tenant(name); ok {
			out = append(out, t)
		}
	}
	return out
}

// Epochs returns the controller's policy-generation store. The data
// plane reads it per-packet (Acquire/Release); the API exposes it at
// GET /v1/epochs.
func (c *Controller) Epochs() *EpochStore { return c.epochs }

// ResynthStats returns the incremental synthesizer's cache counters.
func (c *Controller) ResynthStats() ResynthStats { return c.resynth.Stats() }

// Tenant returns the registered tenant with the given name.
func (c *Controller) Tenant(name string) (*Tenant, bool) {
	t := c.lookup(name).tenant
	return t, t != nil
}

// TenantOpKind classifies one entry of a batch mutation.
type TenantOpKind int

const (
	// OpJoin registers Tenant.
	OpJoin TenantOpKind = iota
	// OpLeave removes the tenant named Name.
	OpLeave
	// OpUpdate replaces the definition of the tenant named Tenant.Name.
	OpUpdate
)

// String implements fmt.Stringer.
func (k TenantOpKind) String() string {
	switch k {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// TenantOp is one entry of an ApplyBatch mutation.
type TenantOp struct {
	// Kind selects the operation.
	Kind TenantOpKind
	// Tenant is the definition for OpJoin/OpUpdate.
	Tenant *Tenant
	// Name names the tenant for OpLeave.
	Name string
}
