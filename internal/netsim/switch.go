package netsim

import (
	"fmt"

	"qvisor/internal/pkt"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
)

type switchKind int

const (
	leafSwitch switchKind = iota
	spineSwitch
)

// Switch is an output-queued leaf or spine switch. On receive it runs the
// QVISOR pre-processor (once per packet, at the first switch on the path)
// and forwards to the egress port selected by the routing function.
//
// Leaf port layout: ports[0:HostsPerLeaf] go to local hosts,
// ports[HostsPerLeaf:HostsPerLeaf+Spines] go to spines.
// Spine port layout: ports[i] goes to leaf i.
type Switch struct {
	net   *Network
	kind  switchKind
	id    int
	name  string // precomputed "leaf<id>"/"spine<id>" so tracing never allocates
	ports []*Port
}

func newSwitch(n *Network, kind switchKind, id, nports int) *Switch {
	role := "leaf"
	if kind == spineSwitch {
		role = "spine"
	}
	return &Switch{
		net:   n,
		kind:  kind,
		id:    id,
		name:  fmt.Sprintf("%s%d", role, id),
		ports: make([]*Port, nports),
	}
}

// receive handles an arriving packet: pre-process, route, enqueue. The
// tap sees the switch arrival, the rank transform (with the pre-transform
// rank), and any drop the switch itself causes — a pre-processor rejection
// is an admission drop, an unroutable destination a fault. Those drops
// happen outside any port scheduler, hence the nil port.
func (sw *Switch) receive(now sim.Time, p *pkt.Packet) {
	n := sw.net
	n.tap.arrive(now, sw.name, p)
	if !p.Tagged && (n.pre != nil || n.cfg.Epochs != nil) {
		p.Tagged = true
		if pp := n.preprocFor(p); pp != nil {
			pre := p.Rank
			if !pp.Process(p) {
				n.drop(now, sw.name, nil, p, sched.CauseAdmission)
				return
			}
			n.tap.transform(now, sw.name, p, pre)
		}
	}
	out := sw.route(p)
	if out == nil {
		n.drop(now, sw.name, nil, p, sched.CauseFault)
		return
	}
	out.send(now, p)
}

func (sw *Switch) route(p *pkt.Packet) *Port {
	cfg := &sw.net.cfg
	dstLeaf := sw.net.leafOf(p.Dst)
	switch sw.kind {
	case leafSwitch:
		if dstLeaf == sw.id {
			return sw.ports[p.Dst%cfg.HostsPerLeaf]
		}
		return sw.ports[cfg.HostsPerLeaf+sw.net.ecmp(p.Flow)]
	case spineSwitch:
		return sw.ports[dstLeaf]
	}
	return nil
}
