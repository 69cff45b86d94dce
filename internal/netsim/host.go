package netsim

import (
	"fmt"

	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
	"qvisor/internal/stats"
	"qvisor/internal/workload"
)

// Host is an end host: it sources flows through a minimal pFabric-style
// transport (window-based, per-packet acks, timeout retransmission — the
// "minimal near-optimal transport" of the pFabric paper that Netbench
// reproduces), computes packet ranks with the tenant's rank function, and
// sinks traffic addressed to it.
type Host struct {
	net     *Network
	id      int
	name    string // precomputed "host<id>" so tracing never allocates per packet
	up      *Port
	sending map[uint64]*sendFlow
	cbrStop bool
}

func newHost(n *Network, id int) *Host {
	return &Host{
		net:     n,
		id:      id,
		name:    fmt.Sprintf("host%d", id),
		sending: make(map[uint64]*sendFlow),
	}
}

// packet send-state machine.
const (
	stUnsent uint8 = iota
	stInflight
	stQueued // timed out, waiting for retransmission
	stAcked
)

// sendFlow is the sender side of one size-based flow.
type sendFlow struct {
	host  *Host
	td    *TenantDef
	spec  workload.FlowSpec
	id    uint64
	fl    rank.Flow
	npkts int

	state      []uint8
	retxQueue  []int
	nextUnsent int
	inflight   int
	nAcked     int
	timer      sim.Handle
	rtoFn      sim.Event // onRTO bound once; a fresh method value allocates
	completed  bool
}

// startFlow begins one flow. The flow ID is preassigned at build time
// from the global schedule order, so sharded and single-threaded runs
// agree on it (and hence on the flow's ECMP path).
func (h *Host) startFlow(now sim.Time, td *TenantDef, spec workload.FlowSpec, id uint64) {
	if spec.Rate > 0 {
		h.startCBR(now, td, spec, id)
		return
	}
	mss := h.net.cfg.MSS
	npkts := int((spec.Size + int64(mss) - 1) / int64(mss))
	if npkts == 0 {
		npkts = 1
	}
	sf := &sendFlow{
		host:  h,
		td:    td,
		spec:  spec,
		id:    id,
		npkts: npkts,
		state: make([]uint8, npkts),
		fl: rank.Flow{
			ID:      id,
			Size:    spec.Size,
			Arrival: now,
		},
	}
	sf.rtoFn = sf.onRTO
	h.sending[id] = sf
	sf.trySend(now)
}

// payload returns the payload size of packet idx.
func (sf *sendFlow) payload(idx int) int {
	mss := sf.host.net.cfg.MSS
	if idx == sf.npkts-1 {
		last := int(sf.spec.Size - int64(sf.npkts-1)*int64(mss))
		if last <= 0 {
			last = 1
		}
		return last
	}
	return mss
}

// trySend fills the window: retransmissions first, then new data. Each
// packet is ranked, counted, booked in the send state and shown to the tap
// before it goes to the uplink.
func (sf *sendFlow) trySend(now sim.Time) {
	if sf.completed {
		return
	}
	n := sf.host.net
	for sf.inflight < n.cfg.Window {
		idx, retx := sf.nextToSend()
		if idx < 0 {
			break
		}
		payload := sf.payload(idx)
		r := sf.td.Ranker.Rank(now, &sf.fl, payload)
		if !retx {
			sf.fl.Sent += int64(payload)
			n.count.DataSent++
		} else {
			n.count.Retransmits++
		}
		if n.cfg.Controller != nil {
			n.cfg.Controller.Observe(sf.td.ID, r)
		}
		p := n.pool.Get()
		p.ID = n.pktID()
		p.Flow = sf.id
		p.Tenant = sf.td.ID
		p.Rank = r
		p.Size = payload + n.cfg.HeaderBytes
		p.Src = sf.host.id
		p.Dst = sf.spec.Dst
		p.Seq = int64(idx)
		p.Payload = payload
		p.Kind = pkt.Data
		p.Retx = retx
		p.SentAt = now
		sf.state[idx] = stInflight
		sf.inflight++
		sf.armTimer(now)
		n.tap.emit(now, sf.host.name, p)
		sf.host.up.send(now, p)
	}
}

func (sf *sendFlow) nextToSend() (int, bool) {
	for len(sf.retxQueue) > 0 {
		idx := sf.retxQueue[0]
		sf.retxQueue = sf.retxQueue[1:]
		if sf.state[idx] == stQueued {
			return idx, true
		}
	}
	if sf.nextUnsent < sf.npkts {
		idx := sf.nextUnsent
		sf.nextUnsent++
		return idx, false
	}
	return -1, false
}

func (sf *sendFlow) armTimer(now sim.Time) {
	if sf.timer.Pending() || sf.completed {
		return
	}
	sf.timer = sf.host.net.eng.After(sf.host.net.cfg.RTO, sf.rtoFn)
}

// onRTO requeues every in-flight packet for retransmission: the standard
// coarse recovery of packet-level simulators (dropped packets are simply
// never acked).
func (sf *sendFlow) onRTO(now sim.Time) {
	if sf.completed {
		return
	}
	for idx := 0; idx < sf.nextUnsent; idx++ {
		if sf.state[idx] == stInflight {
			sf.state[idx] = stQueued
			sf.retxQueue = append(sf.retxQueue, idx)
			sf.inflight--
		}
	}
	sf.trySend(now)
	if !sf.completed && (sf.inflight > 0 || len(sf.retxQueue) > 0 || sf.nextUnsent < sf.npkts) {
		sf.timer = sf.host.net.eng.After(sf.host.net.cfg.RTO, sf.rtoFn)
	}
}

func (sf *sendFlow) onAck(now sim.Time, idx int) {
	if sf.completed || idx < 0 || idx >= sf.npkts || sf.state[idx] == stAcked {
		return
	}
	if sf.state[idx] == stInflight {
		sf.inflight--
	}
	sf.state[idx] = stAcked
	sf.nAcked++
	if sf.nAcked == sf.npkts {
		sf.complete(now)
		return
	}
	sf.trySend(now)
}

func (sf *sendFlow) complete(now sim.Time) {
	sf.completed = true
	sf.timer.Cancel()
	if fr, ok := sf.td.Ranker.(rank.FlowReleaser); ok {
		fr.Release(sf.id)
	}
	delete(sf.host.sending, sf.id)
	sf.host.net.fcts.Add(stats.FlowRecord{
		ID:     sf.id,
		Tenant: sf.td.Name,
		Size:   sf.spec.Size,
		Start:  sf.fl.Arrival,
		End:    now,
	})
}

// startCBR launches a constant-bit-rate datagram source (the paper's tenant
// 2: open-loop deadline traffic ranked by EDF).
func (h *Host) startCBR(now sim.Time, td *TenantDef, spec workload.FlowSpec, id uint64) {
	n := h.net
	fl := rank.Flow{ID: id, Arrival: now}
	wire := n.cfg.MSS + n.cfg.HeaderBytes
	interval := sim.Time(float64(wire*8) / spec.Rate * 1e9)
	if interval < 1 {
		interval = 1
	}
	stop := spec.Stop
	if stop == 0 {
		stop = n.cfg.Horizon
	}
	var tick func(sim.Time)
	tick = func(tnow sim.Time) {
		if h.cbrStop || tnow > stop {
			return
		}
		if spec.DeadlineBudget > 0 {
			fl.Deadline = tnow + spec.DeadlineBudget
		}
		r := td.Ranker.Rank(tnow, &fl, n.cfg.MSS)
		fl.Sent += int64(n.cfg.MSS) // progress-based rankers (LAS, FQ) see CBR advance
		if n.cfg.Controller != nil {
			n.cfg.Controller.Observe(td.ID, r)
		}
		p := n.pool.Get()
		p.ID = n.pktID()
		p.Flow = id
		p.Tenant = td.ID
		p.Rank = r
		p.Size = wire
		p.Src = h.id
		p.Dst = spec.Dst
		p.Payload = n.cfg.MSS
		p.Kind = pkt.Datagram
		p.SentAt = tnow
		p.Deadline = fl.Deadline
		n.count.CBRSent++
		n.tap.emit(tnow, h.name, p)
		h.up.send(tnow, p)
		n.eng.After(interval, tick)
	}
	n.eng.At(now, tick)
}

// stopCBR halts this host's CBR sources (used when draining).
func (h *Host) stopCBR() { h.cbrStop = true }

// receive sinks packets addressed to this host. Delivery is the packet's
// final stop: the host releases it to the pool after consuming its fields.
func (h *Host) receive(now sim.Time, p *pkt.Packet) {
	n := h.net
	n.count.Delivered++
	n.tap.deliver(now, h.name, p)
	switch p.Kind {
	case pkt.Ack:
		if sf, ok := h.sending[p.Flow]; ok {
			sf.onAck(now, int(p.AckSeq))
		}
	case pkt.Datagram:
		n.count.CBRDelivered++
		if p.Deadline != 0 && now <= p.Deadline {
			n.count.CBROnTime++
		}
	case pkt.Data:
		// Ack every data packet; the sender deduplicates. Acks carry the
		// tenant's best rank (0) so they are never starved within the
		// tenant's band — mirroring pFabric's highest-priority acks.
		ack := n.pool.Get()
		ack.ID = n.pktID()
		ack.Flow = p.Flow
		ack.Tenant = p.Tenant
		ack.Size = n.cfg.HeaderBytes
		ack.Src = h.id
		ack.Dst = p.Src
		ack.Kind = pkt.Ack
		ack.SentAt = now
		ack.AckSeq = p.Seq
		n.count.AcksSent++
		n.tap.emit(now, h.name, ack)
		h.up.send(now, ack)
	}
	n.releasePkt(p)
}
