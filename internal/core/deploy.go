package core

import (
	"fmt"
	"sort"
	"strings"

	"qvisor/internal/pkt"
	"qvisor/internal/sched"
)

// Backend selects the hardware scheduler model a joint policy deploys to
// (§3.4): the ideal PIFO, or one of the "existing schedulers" built from
// FIFO and strict-priority queues.
type Backend int

const (
	// BackendPIFO deploys onto an ideal PIFO queue: transformed ranks are
	// used directly. This is the configuration of the paper's evaluation.
	BackendPIFO Backend = iota
	// BackendSPQueues deploys onto a bank of strict-priority FIFO queues:
	// QVISOR allocates dedicated queues to each strict tier
	// (guaranteeing isolation) and splits each tier's rank band evenly
	// across its queues — the §3.4 example ("map traffic from T1 to the
	// three highest-priority queues, and traffic from T2 and T3 to the
	// two lowest-priority queues").
	BackendSPQueues
	// BackendSPPIFO deploys onto an SP-PIFO, which adapts queue bounds
	// dynamically instead of using the synthesized static mapping.
	BackendSPPIFO
	// BackendAIFO deploys onto an admission-controlled single FIFO.
	BackendAIFO
	// BackendCalendar deploys onto a calendar queue sized to the joint
	// policy's output rank range.
	BackendCalendar
	// BackendFIFO deploys onto a plain FIFO (no prioritization at all);
	// the baseline the paper's Figure 4 shows as the worst case.
	BackendFIFO
	// BackendAdmission deploys onto the combined admission+scheduling
	// discipline (PACKS-style): strict-priority queues with dynamic
	// quantile bounds fronted by AIFO's rank-aware admission gate —
	// admission and scheduling co-designed under limited queues.
	BackendAdmission
	// BackendBucketQ deploys onto the Eiffel-style hierarchical FFS
	// bucket queue: O(1) enqueue/dequeue, exact up to rank quantization
	// at bucket granularity, sized to the joint policy's output range.
	BackendBucketQ
	// numBackends bounds the enum for iteration.
	numBackends
)

// backendTable is the one description of each backend: the name
// Backend.String prints and ParseBackend reads (plus one accepted alias),
// whether it sizes a queue bank from DeployOptions.Queues (and so is held
// to sched.MaxQueues), which device targets can realize it, and how a
// joint policy builds it.
var backendTable = [numBackends]struct {
	name, alias string
	banked      bool
	needs       func(t Target) bool
	build       func(jp *JointPolicy, opts DeployOptions) (*Deployment, error)
}{
	BackendPIFO: {name: "pifo",
		needs: func(t Target) bool { return t.Sorted },
		build: func(_ *JointPolicy, o DeployOptions) (*Deployment, error) { return onto(sched.NewPIFO(o.Sched)) }},
	BackendSPQueues: {name: "sp-queues", alias: "spqueues", banked: true,
		needs: hasQueueBank,
		build: func(jp *JointPolicy, o DeployOptions) (*Deployment, error) { return jp.deploySPQueues(o, nil) }},
	BackendSPPIFO: {name: "sp-pifo", alias: "sppifo", banked: true,
		needs: hasQueueBank,
		build: func(_ *JointPolicy, o DeployOptions) (*Deployment, error) {
			return onto(sched.NewSPPIFO(o.Sched, o.Queues))
		}},
	BackendAIFO: {name: "aifo",
		needs: func(t Target) bool { return t.Admission },
		build: func(_ *JointPolicy, o DeployOptions) (*Deployment, error) {
			return onto(sched.NewAIFO(sched.AIFOConfig{Config: o.Sched}))
		}},
	BackendCalendar: {name: "calendar", banked: true,
		needs: hasQueueBank,
		build: func(jp *JointPolicy, o DeployOptions) (*Deployment, error) {
			width := sched.BucketWidth(jp.Output.Span()+1, o.Queues)
			return onto(sched.NewCalendar(o.Sched, o.Queues, width))
		}},
	BackendFIFO: {name: "fifo",
		needs: func(Target) bool { return true },
		build: func(_ *JointPolicy, o DeployOptions) (*Deployment, error) { return onto(sched.NewFIFO(o.Sched)) }},
	BackendAdmission: {name: "admission", banked: true,
		needs: func(t Target) bool { return t.Admission && hasQueueBank(t) },
		build: func(_ *JointPolicy, o DeployOptions) (*Deployment, error) {
			return onto(sched.NewAdmission(sched.AdmissionConfig{Config: o.Sched, Queues: o.Queues}))
		}},
	// A software structure, not a hardware queue bank: the ring is fixed
	// at sched.DefaultBucketQBuckets regardless of opts.Queues, and the
	// width stretches the joint output range (plus the UnknownWorst rank)
	// across the horizon so steady traffic never touches the overflow
	// FIFO.
	BackendBucketQ: {name: "bucketq",
		needs: hasQueueBank,
		build: func(jp *JointPolicy, o DeployOptions) (*Deployment, error) {
			width := sched.BucketWidth(jp.Output.Span()+2, sched.DefaultBucketQBuckets)
			return onto(sched.NewBucketQ(o.Sched, sched.DefaultBucketQBuckets, width))
		}},
}

func hasQueueBank(t Target) bool { return t.Queues > 1 }

func onto(s sched.Scheduler) (*Deployment, error) { return &Deployment{Scheduler: s}, nil }

// Backends lists every deployable backend in enum order.
func Backends() []Backend {
	out := make([]Backend, 0, int(numBackends))
	for b := Backend(0); b < numBackends; b++ {
		out = append(out, b)
	}
	return out
}

// ParseBackend resolves a backend name as printed by Backend.String
// ("pifo", "sp-queues", "sp-pifo", "aifo", "calendar", "fifo",
// "admission", "bucketq"), accepting "sppifo" and "spqueues" as aliases.
func ParseBackend(name string) (Backend, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for b := range backendTable {
		if d := &backendTable[b]; key == d.name || (d.alias != "" && key == d.alias) {
			return Backend(b), nil
		}
	}
	return 0, fmt.Errorf("core: unknown backend %q", name)
}

// String implements fmt.Stringer.
func (b Backend) String() string {
	if b < 0 || b >= numBackends {
		return fmt.Sprintf("backend(%d)", int(b))
	}
	return backendTable[b].name
}

// DeployOptions tune the deployment.
type DeployOptions struct {
	// Queues is the number of hardware queues available (BackendSPQueues,
	// BackendSPPIFO, BackendCalendar buckets). Zero means 8, a common
	// per-port queue count on commodity switches.
	Queues int
	// Sched is the buffer configuration passed to the scheduler.
	Sched sched.Config
}

func (o DeployOptions) defaults() DeployOptions {
	if o.Queues <= 0 {
		o.Queues = 8
	}
	return o
}

// QueueRange records which output ranks one hardware queue serves.
type QueueRange struct {
	// Queue is the queue index (0 = highest priority).
	Queue int
	// Lo and Hi are the inclusive output rank bounds mapped to the queue.
	Lo, Hi int64
	// Tier is the strict tier the queue is dedicated to.
	Tier int
}

// Deployment is a joint policy compiled onto a concrete scheduler.
type Deployment struct {
	// Backend identifies the hardware model.
	Backend Backend
	// Scheduler is the configured scheduler instance.
	Scheduler sched.Scheduler
	// Ranges describes the queue allocation (BackendSPQueues only).
	Ranges []QueueRange
}

// Describe renders the deployment's queue allocation.
func (d *Deployment) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backend: %s (%s)\n", d.Backend, d.Scheduler.Name())
	for _, r := range d.Ranges {
		fmt.Fprintf(&b, "  queue %d (tier %d): ranks [%d,%d]\n", r.Queue, r.Tier, r.Lo, r.Hi)
	}
	return b.String()
}

// Deploy compiles the joint policy onto the chosen backend, returning the
// ready-to-use scheduler. The pre-processor must still run in front of it;
// Deploy only configures the queueing stage. A queue-bank backend asked
// for more than sched.MaxQueues queues is an error: the count comes from
// flags and API requests and sizes the bank.
func (jp *JointPolicy) Deploy(backend Backend, opts DeployOptions) (*Deployment, error) {
	if backend < 0 || backend >= numBackends {
		return nil, fmt.Errorf("core: unknown backend %v", backend)
	}
	opts = opts.defaults()
	desc := &backendTable[backend]
	if desc.banked && opts.Queues > sched.MaxQueues {
		return nil, errTooManyQueues(opts.Queues, backend)
	}
	d, err := desc.build(jp, opts)
	if err != nil {
		return nil, err
	}
	d.Backend = backend
	return d, nil
}

func errTooManyQueues(n int, b Backend) error {
	return fmt.Errorf("core: %d queues exceed the %d a %v deployment may have", n, sched.MaxQueues, b)
}

// DeploySPActive deploys onto strict-priority queues like BackendSPQueues,
// but allocates queues only to the tiers that contain at least one of the
// named active tenants — the §5 runtime optimization "reallocating queues
// mapped to a tenant if the tenant is not transmitting". Packets from
// inactive tiers still map (coarsely) onto the nearest active tier's
// lowest queue, so late traffic is not lost, merely unprioritized until
// the next reallocation.
func (jp *JointPolicy) DeploySPActive(opts DeployOptions, active []string) (*Deployment, error) {
	opts = opts.defaults()
	if opts.Queues > sched.MaxQueues {
		return nil, errTooManyQueues(opts.Queues, BackendSPQueues)
	}
	activeSet := make(map[string]bool, len(active))
	for _, name := range active {
		activeSet[name] = true
	}
	keep := make([]bool, len(jp.Tiers))
	any := false
	for ti, tp := range jp.Tiers {
		for _, name := range tp.Tenants {
			if activeSet[name] {
				keep[ti] = true
				any = true
				break
			}
		}
	}
	if !any {
		keep = nil // nothing active: fall back to the full allocation
	}
	return jp.deploySPQueues(opts, keep)
}

// deploySPQueues allocates strict-priority queues to the tiers marked in
// keep (nil = all tiers) proportionally to their rank-band widths (each
// tier gets at least one queue) and splits each tier's band evenly across
// its queues.
func (jp *JointPolicy) deploySPQueues(opts DeployOptions, keep []bool) (*Deployment, error) {
	tiers := jp.Tiers
	tierIdx := make([]int, 0, len(tiers))
	for ti := range tiers {
		if keep == nil || keep[ti] {
			tierIdx = append(tierIdx, ti)
		}
	}
	nt := len(tierIdx)
	if nt == 0 {
		return nil, fmt.Errorf("core: joint policy has no tiers")
	}
	if opts.Queues < nt {
		return nil, fmt.Errorf("core: %d queues cannot isolate %d strict tiers", opts.Queues, nt)
	}
	// Proportional allocation with one-queue floors (largest remainder).
	total := int64(0)
	widths := make([]int64, nt)
	for i, ti := range tierIdx {
		widths[i] = tiers[ti].Bounds.Span() + 1
		total += widths[i]
	}
	alloc := make([]int, nt)
	remaining := opts.Queues - nt // after the floors
	type frac struct {
		i    int
		frac float64
	}
	fracs := make([]frac, nt)
	for i := range alloc {
		alloc[i] = 1
		exact := float64(remaining) * float64(widths[i]) / float64(total)
		extra := int(exact)
		alloc[i] += extra
		fracs[i] = frac{i, exact - float64(extra)}
		remaining -= extra
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].frac != fracs[b].frac {
			return fracs[a].frac > fracs[b].frac
		}
		return fracs[a].i < fracs[b].i
	})
	for r := 0; r < remaining; r++ {
		alloc[fracs[r%nt].i]++
	}

	// Build the per-queue rank ranges, highest-priority tier first.
	var ranges []QueueRange
	q := 0
	for i, ti := range tierIdx {
		tp := tiers[ti]
		n := int64(alloc[i])
		width := tp.Bounds.Span() + 1
		per := (width + n - 1) / n
		lo := tp.Bounds.Lo
		for j := int64(0); j < n; j++ {
			hi := lo + per - 1
			if hi > tp.Bounds.Hi || j == n-1 {
				hi = tp.Bounds.Hi
			}
			ranges = append(ranges, QueueRange{Queue: q, Lo: lo, Hi: hi, Tier: ti})
			q++
			lo = hi + 1
			if lo > tp.Bounds.Hi {
				// Tier band narrower than its queue count: remaining
				// queues duplicate the last range (harmlessly unused).
				lo = tp.Bounds.Hi
			}
		}
	}

	// The mapper binary-searches the ordered ranges. Out-of-band ranks
	// (e.g. UnknownWorst traffic) fall into the last queue.
	bounds := make([]int64, len(ranges))
	for i, r := range ranges {
		bounds[i] = r.Hi
	}
	mapper := func(p *pkt.Packet) int {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= p.Rank })
		if i == len(bounds) {
			i = len(bounds) - 1
		}
		return i
	}
	return &Deployment{
		Backend:   BackendSPQueues,
		Scheduler: sched.NewMQ(opts.Sched, len(ranges), mapper),
		Ranges:    ranges,
	}, nil
}
