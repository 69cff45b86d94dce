package core

import (
	"errors"
	"fmt"

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
	// FullResynthesis disables the incremental per-tier memoization and
	// forces every recompilation through a full Synthesize. Off by
	// default; useful for A/B measurement (the churn benchmark) and as an
	// escape hatch.
	FullResynthesis bool
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
	opts        ControllerOptions
	spec        *policy.Spec
	tenants     map[string]*Tenant
	monitors    map[string]*Monitor
	flagged     map[string]bool
	quarantined map[string]bool
	// lastCount is each monitor's observation count at the previous
	// Check, for idle-tenant detection (§5 queue reallocation).
	lastCount map[string]uint64
	active    map[string]bool
	pp        *Preprocessor
	version   uint64
	resynth   *Resynthesizer
	epochs    *EpochStore
	obs       *controllerObs
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
// set is stable from startup.
type controllerObs struct {
	resyntheses *obs.Counter
	events      map[EventKind]*obs.Counter
	version     *obs.Gauge
	tenants     *obs.Gauge
	flagged     *obs.Gauge
	quarantined *obs.Gauge
}

func newControllerObs(reg *obs.Registry) *controllerObs {
	if reg == nil {
		return nil
	}
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

// sync refreshes the controller gauges after any state change.
func (c *Controller) syncObs() {
	if c.obs == nil {
		return
	}
	c.obs.version.Set(float64(c.version))
	c.obs.tenants.Set(float64(len(c.tenants)))
	c.obs.flagged.Set(float64(len(c.flagged)))
	c.obs.quarantined.Set(float64(len(c.quarantined)))
}

// Typed sentinel errors reported by Join and Leave, so callers (notably
// the API server) can map failures to status codes with errors.Is instead
// of string matching.
var (
	// ErrTenantExists: Join with a name that is already registered.
	ErrTenantExists = errors.New("tenant already present")
	// ErrTenantNotFound: Leave (or a lookup) named an unknown tenant.
	ErrTenantNotFound = errors.New("tenant not present")
)

// NewController compiles the initial joint policy and returns the
// controller together with the pre-processor executing it.
func NewController(tenants []*Tenant, spec *policy.Spec, opts ControllerOptions) (*Controller, *Preprocessor, error) {
	opts = opts.defaults()
	c := &Controller{
		opts:        opts,
		spec:        spec,
		tenants:     make(map[string]*Tenant),
		monitors:    make(map[string]*Monitor),
		flagged:     make(map[string]bool),
		quarantined: make(map[string]bool),
		lastCount:   make(map[string]uint64),
		active:      make(map[string]bool),
		resynth:     NewResynthesizer(opts.Synth),
		epochs:      NewEpochStore(UnknownWorst),
		obs:         newControllerObs(opts.Metrics),
	}
	for _, t := range tenants {
		c.tenants[t.Name] = t
	}
	jp, err := c.compile()
	if err != nil {
		return nil, nil, err
	}
	e, err := c.publish(jp)
	if err != nil {
		return nil, nil, err
	}
	c.pp = e.Preprocessor()
	c.pp.EnableMetrics(opts.Metrics, c.tenantName)
	c.resetMonitors()
	c.syncObs()
	return c, c.pp, nil
}

// Registry returns the metrics registry the controller was built with, or
// nil when uninstrumented. The API server exposes it at GET /v1/metrics.
func (c *Controller) Registry() *obs.Registry { return c.opts.Metrics }

// tenantName maps a tenant ID back to its registered name for metric
// labels; unregistered IDs fall back to a synthetic name.
func (c *Controller) tenantName(id pkt.TenantID) string {
	for name, t := range c.tenants {
		if t.ID == id {
			return name
		}
	}
	return fmt.Sprintf("tenant-%d", id)
}

// Policy returns the currently deployed joint policy.
func (c *Controller) Policy() *JointPolicy { return c.pp.Policy() }

// Version returns the number of compilations performed.
func (c *Controller) Version() uint64 { return c.version }

// Monitor returns the rank monitor for a tenant name, or nil.
func (c *Controller) Monitor(name string) *Monitor { return c.monitors[name] }

// Observe records a rank emitted by a tenant (before transformation). The
// simulator calls this from the pre-processor path.
func (c *Controller) Observe(tenant pkt.TenantID, r int64) {
	for name, t := range c.tenants {
		if t.ID == tenant {
			if m := c.monitors[name]; m != nil {
				m.Observe(r)
			}
			return
		}
	}
}

func (c *Controller) compile() (*JointPolicy, error) {
	names := c.spec.Tenants()
	inSpec := make(map[string]bool, len(names))
	list := make([]*Tenant, 0, len(c.tenants))
	for _, name := range names {
		t, ok := c.tenants[name]
		if !ok {
			return nil, fmt.Errorf("core: spec tenant %q not registered", name)
		}
		inSpec[name] = true
		list = append(list, t)
	}
	for name := range c.tenants {
		if !inSpec[name] {
			return nil, fmt.Errorf("core: tenant %q missing from operator spec %q", name, c.spec)
		}
	}
	var jp *JointPolicy
	var err error
	if c.opts.FullResynthesis {
		jp, err = Synthesize(list, c.spec, c.opts.Synth)
	} else {
		jp, err = c.resynth.Resynthesize(list, c.spec)
	}
	if err != nil {
		return nil, err
	}
	c.version++
	jp.Version = c.version
	if c.obs != nil {
		c.obs.resyntheses.Inc()
	}
	return jp, nil
}

// publish compiles the optional per-epoch deployment and installs jp as
// the next policy generation, whose rewrite table the pre-processor then
// shares. On deployment failure the version bump is rolled back so epoch
// generations stay aligned with Version.
func (c *Controller) publish(jp *JointPolicy) (*Epoch, error) {
	var d *Deployment
	if ed := c.opts.EpochDeploy; ed != nil {
		var err error
		d, err = jp.Deploy(ed.Backend, ed.Options)
		if err != nil {
			c.version--
			return nil, err
		}
	}
	return c.epochs.Publish(jp, d), nil
}

func (c *Controller) recompile(now sim.Time, reason string) error {
	jp, err := c.compile()
	if err != nil {
		return err
	}
	e, err := c.publish(jp)
	if err != nil {
		return err
	}
	c.pp.Pin(e)
	c.emit(Event{Kind: EventResynthesized, At: now, Detail: reason})
	return nil
}

func (c *Controller) resetMonitors() {
	for name, t := range c.tenants {
		b, err := t.EffectiveBounds()
		if err != nil {
			continue
		}
		c.monitors[name] = NewMonitor(b, c.opts.WindowSize)
	}
}

func (c *Controller) emit(e Event) {
	if c.obs != nil {
		c.obs.events[e.Kind].Inc()
		c.syncObs()
	}
	if c.opts.OnEvent != nil {
		c.opts.OnEvent(e)
	}
}

// Join adds a tenant at runtime, updates the operator spec, and
// re-synthesizes.
func (c *Controller) Join(now sim.Time, t *Tenant, spec *policy.Spec) error {
	if _, dup := c.tenants[t.Name]; dup {
		return fmt.Errorf("core: tenant %q: %w", t.Name, ErrTenantExists)
	}
	c.tenants[t.Name] = t
	c.spec = spec
	if err := c.recompile(now, "tenant "+t.Name+" joined"); err != nil {
		delete(c.tenants, t.Name)
		return err
	}
	b, err := t.EffectiveBounds()
	if err == nil {
		c.monitors[t.Name] = NewMonitor(b, c.opts.WindowSize)
	}
	c.emit(Event{Kind: EventTenantJoined, Tenant: t.Name, At: now})
	return nil
}

// Leave removes a tenant at runtime, updates the operator spec, and
// re-synthesizes.
func (c *Controller) Leave(now sim.Time, name string, spec *policy.Spec) error {
	t, ok := c.tenants[name]
	if !ok {
		return fmt.Errorf("core: tenant %q: %w", name, ErrTenantNotFound)
	}
	delete(c.tenants, name)
	delete(c.monitors, name)
	delete(c.flagged, name)
	delete(c.quarantined, name)
	c.spec = spec
	if err := c.recompile(now, "tenant "+name+" left"); err != nil {
		c.tenants[name] = t
		return err
	}
	c.emit(Event{Kind: EventTenantLeft, Tenant: name, At: now})
	return nil
}

// Check runs one control-loop iteration: flags (and optionally
// quarantines) adversarial tenants, and re-synthesizes with learned bounds
// when a tenant's rank distribution has drifted. It returns true when a
// new joint policy was deployed.
func (c *Controller) Check(now sim.Time) (bool, error) {
	drifted := false
	var quarantine []string
	for name, m := range c.monitors {
		// Activity between checks drives the §5 queue-reallocation
		// decision: a tenant that emitted nothing since the last check
		// is considered idle.
		c.active[name] = m.Count() > c.lastCount[name]
		c.lastCount[name] = m.Count()
		if m.Count() < c.opts.MinObservations {
			continue
		}
		if f := m.OutsideFraction(); f > c.opts.AdversarialFraction && !c.flagged[name] {
			c.flagged[name] = true
			c.emit(Event{
				Kind:   EventAdversarial,
				Tenant: name,
				At:     now,
				Detail: fmt.Sprintf("%.1f%% of ranks outside declared %v", 100*f, m.Declared()),
			})
			if c.opts.Quarantine {
				quarantine = append(quarantine, name)
			}
		}
		// Quarantined tenants keep their declared bounds: learning from
		// an adversary would let it steer the policy.
		if c.quarantined[name] || (c.opts.Quarantine && c.flagged[name]) {
			continue
		}
		if m.Drift() > c.opts.DriftThreshold {
			if lb, ok := m.LearnedBounds(); ok {
				c.tenants[name].Bounds = lb
				c.monitors[name] = NewMonitor(lb, c.opts.WindowSize)
				drifted = true
			}
		}
	}
	for _, name := range quarantine {
		if c.quarantined[name] {
			continue
		}
		c.spec = c.spec.Demote(name)
		c.quarantined[name] = true
		drifted = true
		c.emit(Event{
			Kind:   EventQuarantined,
			Tenant: name,
			At:     now,
			Detail: fmt.Sprintf("demoted to dedicated bottom tier: %s", c.spec),
		})
	}
	if !drifted {
		return false, nil
	}
	if err := c.recompile(now, "rank distribution drift"); err != nil {
		return false, err
	}
	return true, nil
}

// Quarantined reports whether a tenant has been demoted to the bottom
// tier.
func (c *Controller) Quarantined(name string) bool { return c.quarantined[name] }

// ActiveTenants returns the tenants that emitted at least one rank between
// the two most recent Check calls, in spec order. Before the first Check
// every tenant is considered active. Feed the result to
// JointPolicy.DeploySPActive to reallocate hardware queues away from idle
// tenants (§5).
func (c *Controller) ActiveTenants() []string {
	var out []string
	for _, name := range c.spec.Tenants() {
		if len(c.active) == 0 || c.active[name] {
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
func (c *Controller) Flagged(name string) bool { return c.flagged[name] }

// Spec returns the operator specification currently in force.
func (c *Controller) Spec() *policy.Spec { return c.spec }

// Tenants returns the registered tenants in spec order.
func (c *Controller) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(c.tenants))
	for _, name := range c.spec.Tenants() {
		if t, ok := c.tenants[name]; ok {
			out = append(out, t)
		}
	}
	return out
}

// UpdateSpec replaces the operator specification over the existing tenant
// set and re-synthesizes. The previous spec is restored on failure.
func (c *Controller) UpdateSpec(now sim.Time, spec *policy.Spec) error {
	old := c.spec
	c.spec = spec
	if err := c.recompile(now, "operator spec updated"); err != nil {
		c.spec = old
		return err
	}
	return nil
}

// Epochs returns the controller's policy-generation store. The data
// plane reads it per-packet (Acquire/Release); the API exposes it at
// GET /v1/epochs.
func (c *Controller) Epochs() *EpochStore { return c.epochs }

// ResynthStats returns the incremental synthesizer's cache counters.
func (c *Controller) ResynthStats() ResynthStats { return c.resynth.Stats() }

// Tenant returns the registered tenant with the given name.
func (c *Controller) Tenant(name string) (*Tenant, bool) {
	t, ok := c.tenants[name]
	return t, ok
}

// UpdateTenant replaces a registered tenant's definition (bounds,
// algorithm, levels — the name must match an existing tenant and the ID
// must stay unique) and re-synthesizes. The previous definition is
// restored on failure.
func (c *Controller) UpdateTenant(now sim.Time, t *Tenant) error {
	old, ok := c.tenants[t.Name]
	if !ok {
		return fmt.Errorf("core: tenant %q: %w", t.Name, ErrTenantNotFound)
	}
	c.tenants[t.Name] = t
	if err := c.recompile(now, "tenant "+t.Name+" updated"); err != nil {
		c.tenants[t.Name] = old
		return err
	}
	if b, err := t.EffectiveBounds(); err == nil {
		c.monitors[t.Name] = NewMonitor(b, c.opts.WindowSize)
	}
	return nil
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

// ErrBatchFailed wraps ApplyBatch failures caused by individual
// operations; the per-item errors carry the detail.
var ErrBatchFailed = errors.New("batch mutation failed")

// ApplyBatch applies a set of tenant mutations and one spec replacement
// as a single transaction: either every operation validates and the
// whole batch compiles into ONE new policy generation, or nothing
// changes. The returned slice has one entry per op (nil on success);
// when any entry is non-nil the batch was not applied and the error
// wraps ErrBatchFailed. Item errors wrap ErrTenantExists /
// ErrTenantNotFound so callers can classify them.
func (c *Controller) ApplyBatch(now sim.Time, ops []TenantOp, spec *policy.Spec) ([]error, error) {
	if len(ops) == 0 && spec == nil {
		return nil, fmt.Errorf("core: empty batch: %w", ErrBatchFailed)
	}
	// Stage the mutations on a copy of the tenant map, collecting
	// per-item errors without touching controller state.
	staged := make(map[string]*Tenant, len(c.tenants))
	for name, t := range c.tenants {
		staged[name] = t
	}
	itemErrs := make([]error, len(ops))
	failed := false
	var joined, left, updated []string
	for i, op := range ops {
		switch op.Kind {
		case OpJoin:
			if op.Tenant == nil {
				itemErrs[i] = fmt.Errorf("core: join op without tenant")
				failed = true
				continue
			}
			if _, dup := staged[op.Tenant.Name]; dup {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Tenant.Name, ErrTenantExists)
				failed = true
				continue
			}
			staged[op.Tenant.Name] = op.Tenant
			joined = append(joined, op.Tenant.Name)
		case OpLeave:
			if _, ok := staged[op.Name]; !ok {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Name, ErrTenantNotFound)
				failed = true
				continue
			}
			delete(staged, op.Name)
			left = append(left, op.Name)
		case OpUpdate:
			if op.Tenant == nil {
				itemErrs[i] = fmt.Errorf("core: update op without tenant")
				failed = true
				continue
			}
			if _, ok := staged[op.Tenant.Name]; !ok {
				itemErrs[i] = fmt.Errorf("core: tenant %q: %w", op.Tenant.Name, ErrTenantNotFound)
				failed = true
				continue
			}
			staged[op.Tenant.Name] = op.Tenant
			updated = append(updated, op.Tenant.Name)
		default:
			itemErrs[i] = fmt.Errorf("core: unknown op kind %v", op.Kind)
			failed = true
		}
	}
	if failed {
		return itemErrs, fmt.Errorf("core: %w", ErrBatchFailed)
	}
	oldTenants, oldSpec := c.tenants, c.spec
	c.tenants = staged
	if spec != nil {
		c.spec = spec
	}
	if err := c.recompile(now, fmt.Sprintf("batch of %d ops", len(ops))); err != nil {
		c.tenants, c.spec = oldTenants, oldSpec
		return nil, err
	}
	// The batch is live: fix up per-tenant tracking state and emit the
	// membership events.
	for _, name := range left {
		delete(c.monitors, name)
		delete(c.flagged, name)
		delete(c.quarantined, name)
		delete(c.lastCount, name)
		delete(c.active, name)
		c.emit(Event{Kind: EventTenantLeft, Tenant: name, At: now})
	}
	for _, name := range joined {
		// A tenant joined and removed by the same batch has no final
		// state to track; the membership events still tell the story.
		if t, ok := c.tenants[name]; ok {
			if b, err := t.EffectiveBounds(); err == nil {
				c.monitors[name] = NewMonitor(b, c.opts.WindowSize)
			}
		}
		c.emit(Event{Kind: EventTenantJoined, Tenant: name, At: now})
	}
	for _, name := range updated {
		if t, ok := c.tenants[name]; ok {
			if b, err := t.EffectiveBounds(); err == nil {
				c.monitors[name] = NewMonitor(b, c.opts.WindowSize)
			}
		}
	}
	return itemErrs, nil
}
