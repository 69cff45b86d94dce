package netsim

import (
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
)

// Port is one unidirectional output port: a scheduler feeding a
// store-and-forward transmitter onto a link with fixed rate and propagation
// delay. Dequeue order is entirely up to the scheduler, which is where
// every scheduling policy in the reproduction takes effect.
type Port struct {
	net     *Network
	name    string
	q       sched.Scheduler
	rateBps float64
	busy    bool
	deliver func(now sim.Time, p *pkt.Packet)

	// inflight holds packets serialized onto the wire but not yet
	// delivered, in transmission order. Because the propagation delay is
	// constant and transmissions never overlap, arrivals occur in exactly
	// that order, so two persistent event callbacks (txDone, arrive) can
	// replace the pair of per-packet closures the transmit path used to
	// allocate.
	inflight pkt.Ring
	txDone   sim.Event
	arrive   sim.Event

	// The tap's per-port state: watch mirrors a sampled subset of this
	// port's queue into the watchdog's shadow oracle, series is shared by
	// the port's (role, scheduler), flushedInv is how much of q's own
	// inversion count it already holds. Nil, and a no-op, when unobserved.
	watch      *slo.PortWatch
	series     *schedSeries
	flushedInv uint64

	// Telemetry.
	txBytes   uint64
	txPackets uint64
	drops     uint64
	busyTime  sim.Time
	maxQueued int

	// Registry-backed instruments, nil when the network is uninstrumented.
	// Counters are shared per device role; flushObs publishes the deltas of
	// the plain telemetry fields above (flushed* remember the high-water
	// marks already published), so the data path itself touches no atomics.
	obsTxBytes     *obs.Counter
	obsTxPackets   *obs.Counter
	obsDrops       *obs.Counter
	obsUtil        *obs.Gauge
	obsMaxQueued   *obs.Gauge
	flushedTxBytes uint64
	flushedTxPkts  uint64
	flushedDrops   uint64
}

func (n *Network) newPort(role string, id int, name string, rateBps float64, deliver func(sim.Time, *pkt.Packet)) *Port {
	pt := &Port{
		net:     n,
		name:    name,
		rateBps: rateBps,
		deliver: deliver,
	}
	if reg := n.cfg.Registry; reg != nil {
		rl := obs.L("role", role)
		pt.obsTxBytes = reg.Counter(MetricPortTxBytes,
			"Bytes transmitted onto the wire.", rl)
		pt.obsTxPackets = reg.Counter(MetricPortTxPackets,
			"Packets transmitted onto the wire.", rl)
		pt.obsDrops = reg.Counter(MetricPortDrops,
			"Packets dropped by port schedulers (admission drops and evictions).", rl)
		pl := obs.L("port", name)
		pt.obsUtil = reg.Gauge(MetricPortUtilization,
			"Busy time over elapsed time, 0-1.", pl)
		pt.obsMaxQueued = reg.Gauge(MetricPortMaxQueued,
			"High-water mark of the port's queue in bytes.", pl)
	}
	// The scheduler's drop callback is the single release point for
	// refused and evicted packets (see the ownership contract on
	// sched.Scheduler): nothing downstream sees them again. The cause
	// reported by the scheduler flows into the trace, the port series and
	// the per-tenant drop-cause counters.
	drop := sched.DropFn(func(p *pkt.Packet, cause sched.DropCause) {
		n.drop(n.eng.Now(), name, pt, p, cause)
	})
	pt.arrive = func(now sim.Time) {
		pt.deliver(now, pt.inflight.Pop())
	}
	pt.txDone = func(end sim.Time) {
		pt.busy = false
		pt.net.eng.After(pt.net.cfg.PropDelay, pt.arrive)
		pt.kick(end)
	}
	if n.cfg.SchedulerFor != nil {
		pt.q = n.cfg.SchedulerFor(role, id, drop)
	}
	if pt.q == nil {
		pt.q = n.cfg.Scheduler(drop)
	}
	pt.watch = n.tap.watch.PortWatch()
	pt.series = n.schedSeries(role, pt.q.Name())
	return pt
}

// send enqueues p and starts transmitting if the line is idle. Drops and
// evictions are counted network-wide through the scheduler's drop callback.
func (pt *Port) send(now sim.Time, p *pkt.Packet) {
	if !pt.q.Enqueue(p) {
		return
	}
	pt.net.tap.enqueue(now, pt, p)
	if b := pt.q.Bytes(); b > pt.maxQueued {
		pt.maxQueued = b
	}
	pt.kick(now)
}

// kick starts the next transmission when the line is idle.
func (pt *Port) kick(now sim.Time) {
	if pt.busy {
		return
	}
	p := pt.q.Dequeue()
	if p == nil {
		return
	}
	pt.net.tap.dequeue(now, pt, p)
	pt.busy = true
	tx := txTime(p.Size, pt.rateBps)
	pt.txBytes += uint64(p.Size)
	pt.txPackets++
	pt.busyTime += tx
	pt.inflight.Push(p)
	pt.net.eng.After(tx, pt.txDone)
}

// newRemotePort builds a port whose receiving device lives on another
// shard: queueing, scheduling, and serialization are all local, but when
// a transmission completes the packet is handed to the shard coordinator
// stamped with its arrival time (tx end plus propagation delay) instead
// of becoming a local arrival event. Because that stamp is always at
// least PropDelay in the future, PropDelay is the conservative lookahead
// that lets shards run a full window in parallel.
func (n *Network) newRemotePort(role string, id int, name string, rateBps float64, link uint64, dst int) *Port {
	pt := n.newPort(role, id, name, rateBps, nil)
	pt.arrive = nil
	pt.txDone = func(end sim.Time) {
		pt.busy = false
		n.part.handoff(end+n.cfg.PropDelay, link, dst, pt.inflight.Pop())
		pt.kick(end)
	}
	return pt
}

// Queue exposes the port's scheduler for inspection in tests.
func (pt *Port) Queue() sched.Scheduler { return pt.q }

// PortStats is the telemetry of one output port.
type PortStats struct {
	// Name identifies the port ("leaf0→spine1").
	Name string
	// TxBytes and TxPackets count transmissions.
	TxBytes   uint64
	TxPackets uint64
	// Utilization is busy time over elapsed time, 0–1.
	Utilization float64
	// MaxQueuedBytes is the high-water mark of the port's queue.
	MaxQueuedBytes int
}

func (pt *Port) stats(elapsed sim.Time) PortStats {
	util := 0.0
	if elapsed > 0 {
		util = float64(pt.busyTime) / float64(elapsed)
	}
	return PortStats{
		Name:           pt.name,
		TxBytes:        pt.txBytes,
		TxPackets:      pt.txPackets,
		Utilization:    util,
		MaxQueuedBytes: pt.maxQueued,
	}
}

// flushObs publishes the port's staged telemetry: counter deltas since the
// last flush plus the current gauge values. Inversions are the one number
// only a discipline knows: a scheduler with a Stats method has its delta
// folded into the series here.
func (pt *Port) flushObs(elapsed sim.Time) {
	if pt.obsUtil == nil {
		return
	}
	if q, ok := pt.q.(interface{ Stats() sched.Stats }); ok {
		inv := q.Stats().Inversion
		pt.series.st.inversions += inv - pt.flushedInv
		pt.flushedInv = inv
	}
	s := pt.stats(elapsed)
	pt.obsUtil.Set(s.Utilization)
	pt.obsMaxQueued.Set(float64(s.MaxQueuedBytes))
	pt.obsTxBytes.Add(pt.txBytes - pt.flushedTxBytes)
	pt.flushedTxBytes = pt.txBytes
	pt.obsTxPackets.Add(pt.txPackets - pt.flushedTxPkts)
	pt.flushedTxPkts = pt.txPackets
	pt.obsDrops.Add(pt.drops - pt.flushedDrops)
	pt.flushedDrops = pt.drops
}
