package sched

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// MaxQueues bounds the queue or bucket count of any scheduler built from
// outside input — a spec string given to New, a deployment's queue option.
// The count sizes the bank's slices, so an unbounded one is a memory
// exhaustion vector; 4096 is also what BucketQ's two-level bitmap (64
// words of 64 bits) covers. Constructors still panic on programmer error.
const MaxQueues = 64 * 64

// DefaultBucketQBuckets is the ring size a bare "bucketq" spec gets: 1024
// single-rank buckets, deep enough that typical joint-policy output spans
// fit the horizon without touching the overflow FIFO.
const DefaultBucketQBuckets = 1024

// BucketWidth returns the rank width that lets n buckets (or queues) cover
// span ranks: ⌈span/n⌉, and at least 1. It is the one sizing rule behind
// every calendar and bucket-queue deployment.
func BucketWidth(span int64, n int) int64 {
	return max(1, (span-1)/int64(n)+1) // ⌈span/n⌉ without overflowing near MaxInt64
}

// forms is the one list of spellings New accepts; the error texts and
// Names are generated from it. Parameters are the capitals: a form matches
// a spec with the same name and separators whose parameters are integers
// in range — the first is a queue or bucket count in 1..MaxQueues, a
// second is a rank width or horizon of at least 1.
var forms = []struct {
	form, usage string
	build       func(cfg Config, n int, w int64) Scheduler
}{
	{"pifo", "ideal push-in first-out queue",
		func(cfg Config, _ int, _ int64) Scheduler { return NewPIFO(cfg) }},
	{"fifo", "single tail-drop FIFO",
		func(cfg Config, _ int, _ int64) Scheduler { return NewFIFO(cfg) }},
	{"aifo", "admission-controlled FIFO",
		func(cfg Config, _ int, _ int64) Scheduler { return NewAIFO(AIFOConfig{Config: cfg}) }},
	{"drr", "deficit round robin, keyed by flow",
		func(cfg Config, _ int, _ int64) Scheduler { return NewDRR(DRRConfig{Config: cfg}) }},
	{"admission", "admission-aware strict-priority queues (8), dynamic bounds",
		func(cfg Config, _ int, _ int64) Scheduler { return NewAdmission(AdmissionConfig{Config: cfg}) }},
	{"admission:N", "the same over N queues",
		func(cfg Config, n int, _ int64) Scheduler {
			return NewAdmission(AdmissionConfig{Config: cfg, Queues: n})
		}},
	{"sppifo:N", "SP-PIFO over N strict-priority queues",
		func(cfg Config, n int, _ int64) Scheduler { return NewSPPIFO(cfg, n) }},
	{"calendar:N:W", "calendar queue, N buckets of rank width W",
		func(cfg Config, n int, w int64) Scheduler { return NewCalendar(cfg, n, w) }},
	{"bucketq", "FFS bucket queue, 1024 buckets of rank width 1",
		func(cfg Config, _ int, _ int64) Scheduler { return NewBucketQ(cfg, DefaultBucketQBuckets, 1) }},
	{"bucketq:B", "the same over B buckets",
		func(cfg Config, b int, _ int64) Scheduler { return NewBucketQ(cfg, b, 1) }},
	{"bucketq:B,H", "B buckets covering a rank horizon of H (width ⌈H/B⌉)",
		func(cfg Config, b int, h int64) Scheduler { return NewBucketQ(cfg, b, BucketWidth(h, b)) }},
}

// splitSpec cuts a spec at its ':' and ',' separators and returns the
// pieces with the separators met: "bucketq:64,8" → [bucketq 64 8], ":,".
func splitSpec(spec string) (fields []string, seps string) {
	start := 0
	for i := 0; i < len(spec); i++ {
		if c := spec[i]; c == ':' || c == ',' {
			fields = append(fields, spec[start:i])
			seps += string(c)
			start = i + 1
		}
	}
	return append(fields, spec[start:]), seps
}

// New builds a scheduler from a spec string: one of the spellings in the
// forms table above, with integers for the capitals ("sppifo:8",
// "calendar:32:100", "bucketq:128,65536"). A malformed or out-of-range
// spec of a known scheduler returns an error naming that scheduler's
// forms; an unknown name returns an error listing every form.
func New(name string, cfg Config) (Scheduler, error) {
	fields, seps := splitSpec(name)
	var family []string
	for _, f := range forms {
		ff, fseps := splitSpec(f.form)
		if ff[0] != fields[0] {
			continue
		}
		family = append(family, f.form+" ("+f.usage+")")
		if fseps != seps {
			continue
		}
		args := [2]int64{1, 1}
		ok := true
		for i, s := range fields[1:] {
			v, err := strconv.ParseInt(s, 10, 64)
			args[i] = v
			ok = ok && err == nil
		}
		if ok && args[0] >= 1 && args[0] <= MaxQueues && args[1] >= 1 {
			return f.build(cfg, int(args[0]), args[1]), nil
		}
	}
	if family != nil {
		return nil, fmt.Errorf("sched: bad %s spec %q: want %s; counts in 1..%d, widths and horizons at least 1",
			fields[0], name, strings.Join(family, " or "), MaxQueues)
	}
	all := make([]string, len(forms))
	for i, f := range forms {
		all[i] = f.form
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (choices: %s)", name, strings.Join(all, ", "))
}

// Names lists the forms that take no parameters, sorted.
func Names() []string {
	var names []string
	for _, f := range forms {
		if !strings.ContainsAny(f.form, ":,") {
			names = append(names, f.form)
		}
	}
	slices.Sort(names)
	return names
}
