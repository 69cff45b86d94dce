package netsim

// The tap: the one place a packet is observed.
//
// QVISOR sits in front of a conventional scheduler, so whatever the system
// learns about a queue it learns at the port: from what goes in, what comes
// out and what the drop callback reports. Hosts, ports and switches only
// name the lifecycle event; this file alone knows which observers exist —
// the flight recorder (internal/trace), the fidelity watchdog (internal/slo)
// and the port's scheduler series (series.go). A hook calls every observer
// its event concerns from one function body, so a call site cannot reach
// one observer and miss another, the way the watchdog used to miss every
// switch-side drop when each site called the observers itself.
//
// Decided at emit: whether each sampling observer watches this packet. Both
// sample by flow, so the answer holds for the packet's whole life; emit asks
// each observer's Samples once and stamps the answers on
// pkt.Packet.Observers (zeroed with the packet by Pool.Put). Every later
// hook tests that mask and nothing else: an unobserved packet costs one
// branch per hook whether or not observers are attached, and attaching one
// changes no code path the packet takes. The mask survives a cross-shard
// hand-off because a shard's observers are forks of the cluster's (Shard)
// and share its sampling rates.
//
// The scheduler is a black box here: never asked to count, to tell the time
// or to stamp a packet (series.go says what the port reads instead).

import (
	"qvisor/internal/pkt"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// Bits of pkt.Packet.Observers.
const (
	obsTrace uint8 = 1 << iota // the flight recorder samples the packet's flow
	obsWatch                   // the watchdog samples the packet's flow
)

// tap fans a packet lifecycle event out to one Network's observers; either
// may be nil. Their per-port halves — the watchdog's shadow queue, the
// scheduler series — hang off the Port a hook is given.
type tap struct {
	rec   *trace.Recorder
	watch *slo.Watchdog
}

// emit is the hook of the three places a packet is created — data, CBR
// datagram, ack. It makes the packet's only sampling decisions.
func (t *tap) emit(now sim.Time, where string, p *pkt.Packet) {
	if t.rec.Samples(p) {
		p.Observers |= obsTrace
		t.rec.Record(now, trace.KindEmit, where, p)
	}
	if t.watch.Samples(p) {
		p.Observers |= obsWatch
	}
}

// arrive: p reached a switch ingress.
func (t *tap) arrive(now sim.Time, where string, p *pkt.Packet) {
	if p.Observers&obsTrace != 0 {
		t.rec.Record(now, trace.KindArrive, where, p)
	}
}

// transform: the pre-processor rewrote p's rank from pre to p.Rank.
func (t *tap) transform(now sim.Time, where string, p *pkt.Packet, pre int64) {
	if p.Observers&obsTrace != 0 {
		t.rec.RecordTransform(now, where, p, pre)
	}
}

// enqueue: pt's scheduler accepted p. The stamp is what sojourn is measured
// from, by the series and by the watchdog alike.
func (t *tap) enqueue(now sim.Time, pt *Port, p *pkt.Packet) {
	p.EnqueuedAt = now
	pt.series.accepted(pt.q)
	if o := p.Observers; o != 0 {
		if o&obsTrace != 0 {
			t.rec.Record(now, trace.KindEnqueue, pt.name, p)
		}
		if o&obsWatch != 0 {
			pt.watch.OnEnqueue(now, p)
		}
	}
}

// dequeue: pt's scheduler released p for transmission.
func (t *tap) dequeue(now sim.Time, pt *Port, p *pkt.Packet) {
	pt.series.released(pt.q, now-p.EnqueuedAt)
	if o := p.Observers; o != 0 {
		if o&obsTrace != 0 {
			t.rec.Record(now, trace.KindDequeue, pt.name, p)
		}
		if o&obsWatch != 0 {
			pt.watch.OnDequeue(now, p)
		}
	}
}

// deliver: p's destination host consumed it.
func (t *tap) deliver(now sim.Time, where string, p *pkt.Packet) {
	if o := p.Observers; o != 0 {
		if o&obsTrace != 0 {
			t.rec.Record(now, trace.KindDeliver, where, p)
		}
		if o&obsWatch != 0 {
			t.watch.OnDeliver(now, p)
		}
	}
}

// drop: p left the network undelivered. pt is the port whose scheduler
// refused or evicted it, whose shadow queue the watchdog judges the drop
// against; nil when a switch dropped p before any queue, where there is no
// shadow and the watchdog books the tenant's loss only.
func (t *tap) drop(now sim.Time, where string, pt *Port, p *pkt.Packet, cause sched.DropCause) {
	if pt != nil {
		pt.series.lost(cause)
	}
	if o := p.Observers; o != 0 {
		if o&obsTrace != 0 {
			t.rec.RecordDrop(now, where, p, cause.String())
		}
		if o&obsWatch != 0 {
			if pt != nil {
				pt.watch.OnDrop(now, p, cause)
			} else {
				t.watch.OnDrop(now, p, cause)
			}
		}
	}
}
