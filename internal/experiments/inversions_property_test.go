package experiments

import (
	"reflect"
	"testing"
)

// TestInversionPropertyAcrossSeeds drives the inversion study over many
// random traces and asserts the bounds every trace must respect: the ideal
// PIFO scores exactly zero inversions, every scheduler conserves packets
// (dequeues + residual drops = arrivals), and rates stay in [0, 1]. This is
// the property-level counterpart of the single-seed TestInversionStudy.
func TestInversionPropertyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed property sweep in -short mode")
	}
	const packets = 5000
	for seed := int64(0); seed < 8; seed++ {
		results, err := InversionStudy(packets, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Scheduler == "pifo" && r.Inversions != 0 {
				t.Errorf("seed %d: ideal PIFO has %d inversions", seed, r.Inversions)
			}
			if r.Dequeues+r.Drops != packets {
				t.Errorf("seed %d: %s lost packets: %d dequeued + %d dropped != %d",
					seed, r.Scheduler, r.Dequeues, r.Drops, packets)
			}
			if r.Rate < 0 || r.Rate > 1 {
				t.Errorf("seed %d: %s rate %v outside [0,1]", seed, r.Scheduler, r.Rate)
			}
			if r.Inversions > r.Dequeues {
				t.Errorf("seed %d: %s more inversions (%d) than dequeues (%d)",
					seed, r.Scheduler, r.Inversions, r.Dequeues)
			}
		}
	}
}

// TestInversionStudyDeterminism: the same seed produces a byte-identical
// study — the contract that lets the runner fan studies out over workers.
func TestInversionStudyDeterminism(t *testing.T) {
	a, err := InversionStudy(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InversionStudy(3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different studies")
	}
}
