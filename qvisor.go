// Package qvisor is a scheduling hypervisor for multi-tenant programmable
// packet scheduling, reproducing "QVISOR: Virtualizing Packet Scheduling
// Policies" (Alcoz and Vanbever, HotNets 2023).
//
// Tenants program the scheduling policies for their traffic as rank
// functions (pFabric, EDF, fair queuing, ...); the operator defines how
// tenants share the scheduling resources with a one-line composition policy
// ("T1 >> T2 + T3"); QVISOR synthesizes a joint scheduling function — a set
// of rank-shift and rank-normalization transformations — and deploys it in
// front of a conventional single-tenant scheduler (a PIFO queue or an
// approximation built from strict-priority FIFO queues).
//
// Basic use:
//
//	pf, _ := qvisor.RankerByName("pfabric")
//	edf, _ := qvisor.RankerByName("edf")
//	hv, err := qvisor.New([]*qvisor.Tenant{
//		{ID: 1, Name: "web", Algorithm: pf},
//		{ID: 2, Name: "deadline", Algorithm: edf},
//	}, "web >> deadline", qvisor.Options{})
//	// per packet:
//	hv.Process(p)          // rewrites p.Rank per the joint policy
//	hv.Scheduler.Enqueue(p) // deployed scheduler sorts by joint rank
//
// The subpackages under internal implement the full system: the operator
// policy language, the synthesizer, the pre-processor, the scheduler zoo
// (PIFO, SP-PIFO, AIFO, calendar queues, strict-priority banks), the
// runtime adaptation loop, and the packet-level network simulator used to
// reproduce the paper's evaluation.
package qvisor

import (
	"qvisor/internal/core"
	"qvisor/internal/orchestrator"
	"qvisor/internal/pifotree"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Tenant is one per-tenant scheduling policy: a traffic segment plus
	// its rank function (§3.1 of the paper).
	Tenant = core.Tenant
	// Transform is one rank-transformation function: normalization
	// (bounding + quantization) composed with a shift (§3.2).
	Transform = core.Transform
	// JointPolicy is the synthesized joint scheduling function.
	JointPolicy = core.JointPolicy
	// SynthOptions tune the synthesizer.
	SynthOptions = core.SynthOptions
	// Preprocessor applies the joint policy to packets at line rate
	// (§3.3).
	Preprocessor = core.Preprocessor
	// Controller is the runtime adaptation loop (§2, Idea 2).
	Controller = core.Controller
	// ControllerOptions tune the controller.
	ControllerOptions = core.ControllerOptions
	// Monitor tracks a tenant's observed rank distribution.
	Monitor = core.Monitor
	// Event is a controller notification (re-synthesis, tenant churn,
	// adversarial flag).
	Event = core.Event
	// EventKind classifies controller events.
	EventKind = core.EventKind
	// Backend selects the hardware scheduler model (§3.4).
	Backend = core.Backend
	// DeployOptions tune deployment onto a backend.
	DeployOptions = core.DeployOptions
	// Deployment is a joint policy compiled onto a concrete scheduler.
	Deployment = core.Deployment
	// FidelityProfile is one backend's measured replay fidelity, used by
	// JointPolicy.DeployBest to auto-select the deployment backend.
	FidelityProfile = core.FidelityProfile
	// UnknownTenantAction selects handling of unlabeled traffic.
	UnknownTenantAction = core.UnknownTenantAction

	// TenantID is the packet label identifying a tenant.
	TenantID = pkt.TenantID
	// Packet is the packet model shared with the schedulers.
	Packet = pkt.Packet
	// Label is the 16-byte wire encoding of (tenant, rank).
	Label = pkt.Label
	// PacketPool is a single-threaded packet free list; Get/Put in the
	// data-plane loop instead of allocating per packet. See DESIGN.md
	// ("Memory model & ownership") for the ownership contract.
	PacketPool = pkt.Pool
	// PacketPoolStats is the pool's Get/Put/miss accounting.
	PacketPoolStats = pkt.PoolStats

	// Bounds is a closed rank interval.
	Bounds = rank.Bounds
	// Ranker computes packet ranks (the tenant-side algorithm).
	Ranker = rank.Ranker
	// Flow is the per-flow state rank functions read.
	Flow = rank.Flow

	// Spec is a parsed operator composition policy.
	Spec = policy.Spec

	// Target describes an existing scheduler's capabilities for the
	// compilation analysis (§3.4, §5).
	Target = core.Target
	// Plan is the guarantee report of compiling a policy onto a Target,
	// with a partial-spec proposal when the target is too small.
	Plan = core.Plan
	// Requirement grades one obligation of the operator spec.
	Requirement = core.Requirement
	// GuaranteeLevel grades how faithfully a requirement is realized.
	GuaranteeLevel = core.GuaranteeLevel

	// Scheduler is an egress queueing discipline.
	Scheduler = sched.Scheduler
	// SchedConfig configures scheduler buffers.
	SchedConfig = sched.Config

	// Time is simulated time in nanoseconds (used by rank functions).
	Time = sim.Time
)

// Deployment backends (§3.4).
const (
	// BackendPIFO deploys onto an ideal PIFO queue.
	BackendPIFO = core.BackendPIFO
	// BackendSPQueues deploys onto a bank of strict-priority FIFO queues
	// with synthesized queue allocation.
	BackendSPQueues = core.BackendSPQueues
	// BackendSPPIFO deploys onto an SP-PIFO approximation.
	BackendSPPIFO = core.BackendSPPIFO
	// BackendAIFO deploys onto an admission-controlled FIFO.
	BackendAIFO = core.BackendAIFO
	// BackendCalendar deploys onto a calendar queue.
	BackendCalendar = core.BackendCalendar
	// BackendFIFO deploys onto a plain FIFO (no prioritization).
	BackendFIFO = core.BackendFIFO
	// BackendBucketQ deploys onto the Eiffel-style O(1) FFS bucket queue.
	BackendBucketQ = core.BackendBucketQ
	// BackendAdmission deploys onto the combined admission+scheduling
	// discipline: strict-priority queues with dynamic quantile bounds
	// behind a rank-aware admission gate.
	BackendAdmission = core.BackendAdmission
)

// Unknown-tenant actions for the pre-processor.
const (
	// UnknownWorst re-ranks unlabeled traffic below every tenant.
	UnknownWorst = core.UnknownWorst
	// UnknownPass forwards unlabeled traffic unchanged.
	UnknownPass = core.UnknownPass
	// UnknownDrop rejects unlabeled traffic.
	UnknownDrop = core.UnknownDrop
)

// ParsePolicy parses an operator composition policy such as
// "T1 >> T2 > T3 + T4 >> T5" (§3.1: ">>" strict priority, ">" best-effort
// preference, "+" sharing).
func ParsePolicy(s string) (*Spec, error) { return policy.Parse(s) }

// ParseBackend resolves a backend name ("pifo", "sp-queues", "sp-pifo",
// "aifo", "calendar", "fifo", "bucketq", "admission") to its Backend
// value, accepting the spelling Backend.String prints plus the "sppifo"
// and "spqueues" aliases.
func ParseBackend(name string) (Backend, error) { return core.ParseBackend(name) }

// Synthesize compiles per-tenant policies and an operator spec into the
// joint scheduling function (§3.2).
func Synthesize(tenants []*Tenant, spec *Spec, opts SynthOptions) (*JointPolicy, error) {
	return core.Synthesize(tenants, spec, opts)
}

// NewPreprocessor returns a pre-processor executing a joint policy (§3.3).
func NewPreprocessor(jp *JointPolicy, action UnknownTenantAction) *Preprocessor {
	return core.NewPreprocessor(jp, action)
}

// NewController compiles the initial joint policy and returns the runtime
// controller plus the pre-processor it drives (§2, Idea 2).
func NewController(tenants []*Tenant, spec *Spec, opts ControllerOptions) (*Controller, *Preprocessor, error) {
	return core.NewController(tenants, spec, opts)
}

// RankerByName constructs a tenant rank function: pfabric, srpt, sjf, las,
// edf, lstf, fifo+, fcfs, stfq, or fq.
func RankerByName(name string) (Ranker, error) { return rank.ByName(name) }

// NewPacketPool returns an empty packet free list. Pools are not safe for
// concurrent use; give each worker its own.
func NewPacketPool() *PacketPool { return pkt.NewPool() }

// NewComposite blends several rank functions into one multi-objective
// policy (§5), normalizing each component over its bounds and combining
// them as a weighted sum quantized to levels ranks (0 = default).
func NewComposite(levels int64, components []Ranker, weights []float64) (Ranker, error) {
	return rank.NewComposite(levels, components, weights)
}

// Hierarchical scheduling (§5): PIFO trees.
type (
	// PIFOTree is a tree of PIFOs implementing Scheduler; tenants can
	// run hierarchical policies such as HPFQ inside their band.
	PIFOTree = pifotree.Tree
	// TreeTransaction computes an element's rank within one tree node.
	TreeTransaction = pifotree.Transaction
	// TreeClassifier maps packets to leaf names.
	TreeClassifier = pifotree.Classifier
)

// NewPIFOTree returns a tree whose root orders children with rootTx and
// classifies packets to leaves with classify.
func NewPIFOTree(cfg SchedConfig, rootTx TreeTransaction, classify TreeClassifier) *PIFOTree {
	return pifotree.NewTree(cfg, rootTx, classify)
}

// NewHPFQ builds two-level hierarchical fair queuing over the named groups.
func NewHPFQ(cfg SchedConfig, groups []string, groupOf TreeClassifier) (*PIFOTree, error) {
	return pifotree.NewHPFQ(cfg, groups, groupOf)
}

// Cross-device orchestration (§5).
type (
	// Device is one switch in a heterogeneous fabric.
	Device = orchestrator.Device
	// FabricPlan is the network-wide compilation result with
	// weakest-link guarantees.
	FabricPlan = orchestrator.FabricPlan
)

// PlanFabric compiles the joint policy against every device of a fabric
// and aggregates the network-wide guarantees.
func PlanFabric(jp *JointPolicy, devices []Device) (*FabricPlan, error) {
	return orchestrator.Plan(jp, devices)
}

// NewScheduler constructs a scheduler from a spec string such as "pifo",
// "sppifo:8" or "calendar:32:100". The accepted forms live in one table in
// internal/sched (see sched.New); the error for an unknown name lists them
// all, and queue or bucket counts above 4096 are rejected.
func NewScheduler(name string, cfg SchedConfig) (Scheduler, error) {
	return sched.New(name, cfg)
}

// Options configure the Hypervisor convenience wrapper.
type Options struct {
	// Synth tunes the synthesizer.
	Synth SynthOptions
	// Backend selects the deployed scheduler (default BackendPIFO).
	Backend Backend
	// Deploy tunes the deployment.
	Deploy DeployOptions
	// Unknown selects handling of unlabeled traffic (default
	// UnknownWorst).
	Unknown UnknownTenantAction
}

// Hypervisor bundles the full QVISOR pipeline: synthesizer output,
// pre-processor, and deployed scheduler. It is the one-call entry point;
// use the individual pieces for finer control.
type Hypervisor struct {
	// Policy is the synthesized joint scheduling function.
	Policy *JointPolicy
	// Pre is the data-plane pre-processor.
	Pre *Preprocessor
	// Scheduler is the deployed queueing stage.
	Scheduler Scheduler
	// Deployment describes the queue allocation.
	Deployment *Deployment
}

// New synthesizes the joint policy for the tenants under the operator's
// composition policy and deploys it to the chosen backend.
func New(tenants []*Tenant, operatorPolicy string, opts Options) (*Hypervisor, error) {
	spec, err := ParsePolicy(operatorPolicy)
	if err != nil {
		return nil, err
	}
	if opts.Synth.DefaultLevels == 0 && opts.Backend == BackendPIFO {
		// A PIFO compares arbitrary integers, so rank space costs
		// nothing: default to fine quantization (2^20 levels) and keep
		// coarse defaults only for backends with physical queues.
		opts.Synth.DefaultLevels = 1 << 20
	}
	jp, err := Synthesize(tenants, spec, opts.Synth)
	if err != nil {
		return nil, err
	}
	dep, err := jp.Deploy(opts.Backend, opts.Deploy)
	if err != nil {
		return nil, err
	}
	return &Hypervisor{
		Policy:     jp,
		Pre:        NewPreprocessor(jp, opts.Unknown),
		Scheduler:  dep.Scheduler,
		Deployment: dep,
	}, nil
}

// Process rewrites a packet's rank according to the joint policy and
// returns false if the packet must be dropped.
func (h *Hypervisor) Process(p *Packet) bool { return h.Pre.Process(p) }

// Enqueue pre-processes the packet and offers it to the deployed
// scheduler, returning false if it was dropped at either stage.
func (h *Hypervisor) Enqueue(p *Packet) bool {
	if !h.Pre.Process(p) {
		return false
	}
	return h.Scheduler.Enqueue(p)
}

// Dequeue returns the next packet from the deployed scheduler, or nil.
func (h *Hypervisor) Dequeue() *Packet { return h.Scheduler.Dequeue() }
