// Package pkt defines the packet model shared by the schedulers, the QVISOR
// pre-processor, and the network simulator.
//
// Following §3.1 of the paper, every packet that reaches QVISOR carries two
// labels: the tenant identifier and the packet rank. The rank is computed by
// the tenant's scheduling algorithm (at the end host or an upstream switch);
// lower ranks are scheduled earlier.
package pkt

import (
	"fmt"

	"qvisor/internal/sim"
)

// TenantID identifies a traffic segment. A "tenant" in QVISOR is a traffic
// segment (e.g., one application), not necessarily a physical tenant.
type TenantID uint16

// NoTenant marks packets that carry no QVISOR label.
const NoTenant TenantID = 0xFFFF

// Kind distinguishes packet roles in the simulator's transports.
type Kind uint8

const (
	// Data carries flow payload and is acknowledged.
	Data Kind = iota
	// Ack acknowledges received data.
	Ack
	// Datagram carries open-loop payload (constant-bit-rate traffic);
	// it is never acknowledged or retransmitted.
	Datagram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Datagram:
		return "datagram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is one simulated packet. Fields are plain values so packets can be
// pooled and copied cheaply.
type Packet struct {
	// ID is unique per simulation run, assigned at creation.
	ID uint64
	// Flow identifies the flow the packet belongs to.
	Flow uint64
	// Tenant is the QVISOR tenant label.
	Tenant TenantID
	// Rank is the scheduling priority; lower is served earlier. Set by the
	// tenant's rank function, rewritten by the QVISOR pre-processor.
	Rank int64
	// Size is the wire size in bytes, headers included.
	Size int
	// Src and Dst are host indices in the simulated topology.
	Src, Dst int
	// Seq is the first payload byte offset carried (data packets).
	Seq int64
	// Payload is the number of payload bytes carried (data packets).
	Payload int
	// Kind is the packet role.
	Kind Kind
	// Retx marks retransmissions.
	Retx bool
	// Tagged marks packets whose rank the QVISOR pre-processor has
	// already rewritten; the transformation is applied once, at the
	// first switch the packet traverses.
	Tagged bool
	// Observers is a bit set of the observers (flight recorder, watchdog)
	// whose flow sample this packet is in, decided once, where the packet
	// is created; the bits belong to the stamping layer (internal/netsim).
	Observers uint8
	// Epoch is the policy generation the packet was transformed under
	// when the sim runs with an epoch store (zero otherwise). The packet
	// stays pinned to this generation until delivered or dropped.
	Epoch uint64
	// SentAt is when the transport first emitted the packet.
	SentAt sim.Time
	// EnqueuedAt is when the packet entered its current scheduler queue;
	// stamped by whoever drives the queue (the simulator's port), never by
	// the scheduler, so sojourn time is measured without asking it.
	EnqueuedAt sim.Time
	// Deadline is the absolute deadline for deadline-constrained traffic.
	Deadline sim.Time
	// AckSeq is the cumulative acknowledgment (ack packets).
	AckSeq int64
}

// String implements fmt.Stringer for debug output.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d flow=%d tenant=%d rank=%d %s seq=%d size=%d}",
		p.ID, p.Flow, p.Tenant, p.Rank, p.Kind, p.Seq, p.Size)
}
