package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"qvisor/internal/pkt"
)

// pifoOp is one step of a PIFO script: an enqueue of a fresh packet with
// the given rank and size, a dequeue, a peek, or a reset.
type pifoOp struct {
	kind byte // 'e', 'd', 'p' or 'r'
	rank int64
	size int
}

// pifoLockstep drives PIFO and the parent's PIFO (refPIFO, in
// reference_test.go) with one script and fails on the first observable
// difference: the packet an op returns (by identity), the drop callbacks
// it caused (ID and cause, in order), and Len, Bytes and Stats after it.
func pifoLockstep(tb testing.TB, label string, capacity int, ops []pifoOp) {
	tb.Helper()
	var refDrops, gotDrops dropLog
	ref := newRefPIFO(Config{CapacityBytes: capacity, OnDrop: refDrops.fn()})
	got := NewPIFO(Config{CapacityBytes: capacity, OnDrop: gotDrops.fn()})
	for step, op := range ops {
		var what string
		seen := len(refDrops)
		switch op.kind {
		case 'e':
			p := &pkt.Packet{ID: uint64(step + 1), Rank: op.rank, Size: op.size}
			what = fmt.Sprintf("enqueue(id %d, rank %d, size %d)", p.ID, p.Rank, p.Size)
			if r, g := ref.Enqueue(p), got.Enqueue(p); r != g {
				tb.Fatalf("%s step %d: %s = %v, reference %v", label, step, what, g, r)
			}
		case 'd':
			what = "dequeue"
			if r, g := ref.Dequeue(), got.Dequeue(); r != g {
				tb.Fatalf("%s step %d: dequeued %v, reference %v", label, step, g, r)
			}
		case 'p':
			what = "peek"
			if r, g := ref.Peek(), got.Peek(); r != g {
				tb.Fatalf("%s step %d: peeked %v, reference %v", label, step, g, r)
			}
		default:
			what = "reset"
			ref.Reset()
			got.Reset()
		}
		if !slices.Equal(refDrops[seen:], gotDrops[seen:]) {
			tb.Fatalf("%s step %d after %s: drops %v, reference %v", label, step, what, gotDrops[seen:], refDrops[seen:])
		}
		if ref.Len() != got.Len() || ref.Bytes() != got.Bytes() || ref.Stats() != got.Stats() {
			tb.Fatalf("%s step %d after %s: len/bytes %d/%d stats %v, reference %d/%d stats %v", label, step, what,
				got.Len(), got.Bytes(), got.Stats(), ref.Len(), ref.Bytes(), ref.Stats())
		}
	}
}

// TestPIFOMatchesReference pins PIFO to the parent's implementation over
// seeded scripts: rank spreads from four values (ties everywhere) to 2^40,
// buffers from one too small for any packet to one never filled, and
// enqueue-heavy mixes that keep a full buffer evicting and refusing.
func TestPIFOMatchesReference(t *testing.T) {
	spreads := []int64{1, 4, 64, 1 << 40}
	capacities := []int{0, 50, 3000, 12000, 1 << 30}
	for _, spread := range spreads {
		for _, capacity := range capacities {
			label := fmt.Sprintf("ranks<%d,cap=%d", spread, capacity)
			for seed := int64(0); seed < 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]pifoOp, 800)
				for i := range ops {
					switch x := rng.Intn(100); {
					case x < 62:
						size := 1500
						if rng.Intn(2) == 0 {
							size = 64 + rng.Intn(1437)
						}
						ops[i] = pifoOp{kind: 'e', rank: rng.Int63n(spread), size: size}
					case x < 90:
						ops[i] = pifoOp{kind: 'd'}
					case x < 99:
						ops[i] = pifoOp{kind: 'p'}
					default:
						ops[i] = pifoOp{kind: 'r'}
					}
				}
				pifoLockstep(t, fmt.Sprintf("%s seed %d", label, seed), capacity, ops)
			}
		}
	}
}

// FuzzPIFO runs the lockstep over fuzzer-chosen scripts. The first byte
// picks the buffer; then each byte is an op, and an enqueue takes the
// next byte as its rank (low four bits) and size class (high bits).
func FuzzPIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0x11, 1, 0x21, 9, 13, 15, 2, 0xf3})
	f.Add([]byte{2, 0, 0x33, 0, 0x33, 0, 0x33, 0, 0x30, 0, 0x3f, 9, 0, 0x30})
	f.Add([]byte{3, 0, 1, 0, 1, 0, 1, 0, 2, 0, 0, 9, 9, 13, 0, 1, 15, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 4096 {
			return
		}
		capacities := []int{0, 50, 3000, 12000}
		sizes := []int{64, 300, 1000, 1500}
		capacity := capacities[script[0]%4]
		var ops []pifoOp
		for i := 1; i < len(script); i++ {
			switch b := script[i] & 15; {
			case b < 9:
				if i++; i == len(script) {
					break
				}
				arg := script[i]
				ops = append(ops, pifoOp{kind: 'e', rank: int64(arg & 15), size: sizes[arg>>4&3]})
			case b < 13:
				ops = append(ops, pifoOp{kind: 'd'})
			case b < 15:
				ops = append(ops, pifoOp{kind: 'p'})
			default:
				ops = append(ops, pifoOp{kind: 'r'})
			}
		}
		pifoLockstep(t, "fuzz", capacity, ops)
	})
}
