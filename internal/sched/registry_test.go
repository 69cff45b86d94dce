package sched

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"qvisor/internal/pkt"
)

// TestNewFailsClosed: every form of the spec table builds at its bounds
// and returns an error — never a panic, never an allocation sized from the
// input — one step outside them. The last column is the string from the
// bug report: ~100 GB of rings before the bound existed.
func TestNewFailsClosed(t *testing.T) {
	subst := func(form string, count, extent int64) string {
		var b strings.Builder
		first := true
		for _, c := range form {
			if c >= 'A' && c <= 'Z' {
				v := extent
				if first {
					v, first = count, false
				}
				fmt.Fprint(&b, v)
				continue
			}
			b.WriteRune(c)
		}
		return b.String()
	}
	for _, f := range forms {
		params := strings.Count(f.form, ":") + strings.Count(f.form, ",")
		for _, tc := range []struct {
			count, extent int64
			ok            bool
		}{
			{1, 1, true},
			{MaxQueues, 1 << 40, true},
			{MaxQueues + 1, 1, params == 0},
			{2000000000, 1, params == 0},
			{0, 1, params == 0},
			{-3, 1, params == 0},
			{8, 0, params < 2},
			{8, -1, params < 2},
		} {
			spec := subst(f.form, tc.count, tc.extent)
			s, err := New(spec, Config{})
			switch {
			case (s == nil) == (err == nil):
				t.Errorf("New(%q) = (%v, %v): want exactly one of scheduler and error", spec, s, err)
			case tc.ok && err != nil:
				t.Errorf("New(%q): %v", spec, err)
			case !tc.ok && err == nil:
				t.Errorf("New(%q) built %s, want an error", spec, s.Name())
			case !tc.ok && !strings.Contains(err.Error(), "4096"):
				t.Errorf("New(%q): error %q does not state the bound", spec, err)
			}
		}
	}
}

// FuzzNew: a spec string is outside input (CLI flags, the public
// NewScheduler). Whatever it holds, New must not panic, must return
// exactly one of a scheduler and an error, and a scheduler it builds must
// conserve packets over a short seeded script at a 4 KB buffer: every
// packet offered is dequeued or reported through exactly one drop callback.
func FuzzNew(f *testing.F) {
	for _, s := range []string{
		"pifo", "fifo", "aifo", "drr", "admission", "admission:4", "sppifo:8",
		"calendar:16:100", "bucketq", "bucketq:64", "bucketq:64,1024",
		"sppifo:1", "sppifo:4096", "sppifo:4097", "sppifo:0", "sppifo:-1",
		"admission:4096", "admission:4097", "calendar:4096:1", "calendar:4097:1",
		"calendar:1:9223372036854775807", "calendar:8:0", "bucketq:4096", "bucketq:4097",
		"bucketq:1,9223372036854775807", "bucketq:64,0",
		"sppifo:2000000000", "admission:2000000000", "calendar:2000000000:1",
		"", ":", ",", "sppifo:", "sppifo::", "bucketq:,", "calendar:1:1:1", "fifo:1", "sppifo:+8", "sppifo:8 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		dropped := 0
		s, err := New(spec, Config{CapacityBytes: 4096, OnDrop: func(*pkt.Packet, DropCause) { dropped++ }})
		if (s == nil) == (err == nil) {
			t.Fatalf("New(%q) = (%v, %v): want exactly one of scheduler and error", spec, s, err)
		}
		if err != nil {
			return
		}
		h := fnv.New64a()
		h.Write([]byte(spec))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		offered, dequeued := 0, 0
		for step := 0; step < 96; step++ {
			if rng.Intn(3) > 0 {
				offered++
				s.Enqueue(&pkt.Packet{ID: uint64(step), Flow: uint64(rng.Intn(4)), Rank: rng.Int63n(1 << 20), Size: 64 + rng.Intn(1437)})
			} else if s.Dequeue() != nil {
				dequeued++
			}
		}
		for s.Dequeue() != nil {
			dequeued++
		}
		if offered != dequeued+dropped || s.Len() != 0 || s.Bytes() != 0 {
			t.Fatalf("New(%q): offered %d, dequeued %d, dropped %d; %d packets / %d bytes left",
				spec, offered, dequeued, dropped, s.Len(), s.Bytes())
		}
	})
}
