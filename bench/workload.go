package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// spec describes one workload of the benchmark.
type spec struct {
	name string
	why  string
	// procs is how many goroutines do the workload's work at once. Timing
	// from a machine with fewer CPUs measures time-slicing, not the program,
	// and is flagged unresolved.
	procs int
	// build does the whole set-up: constructors, input generation from the
	// seed, synthesis, reference run and one untimed warm-up pass. scale 1
	// is the benchmark; the smoke test runs at 1/50.
	build func(seed int64, scale float64) (runner, error)
}

// runner is a set-up workload.
type runner interface {
	// pass runs one pass of the workload and checks its outputs. t is nil
	// on an untraced pass; a traced pass records spans around the calls
	// into each layer.
	pass(t *tracer, n int) pass
	// layers measures the per-layer metrics in a traced run. untraced are
	// the passes it may compare against; reps scales repetition counts.
	layers(t *tracer, untraced []pass, reps int) (map[string]float64, error)
	// describe prints what repeats exactly on this seed (digests, simulated
	// statistics), so two commits can be compared by eye.
	describe(w io.Writer)
	// close stops every goroutine the workload started, waits for it, and
	// returns one line per failure only visible once everything stopped.
	close() []string
}

// pass is the outcome of one pass.
type pass struct {
	ops     uint64  // packets or updates
	wall    float64 // host ns of the whole pass
	nsPerOp float64 // the pass's end-to-end cost; wall/ops unless the workload times ops itself
	// attempted and failed count the workload's correctness ops (scheme
	// runs, packets, requests) as README.md defines them.
	attempted, failed uint64
	why               []string // one line per kind of failure seen
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.why) < 8 {
		p.why = append(p.why, fmt.Sprintf(format, args...))
	}
}

// specs lists the workloads in the order they run and print.
var specs = []spec{
	{name: "fig4_load60", procs: 1, build: buildFig4Load60,
		why: "the paper's Figure-4 run, six schemes, observers off: engine, transport and port scheduling do the work; rewrite and observer changes must not show"},
	{name: "fig4_observed", procs: 1, build: buildFig4Observed,
		why: "the three QVISOR schemes with registry, flight recorder and SLO watchdog at 1-in-8: the workload where observer cost is a fifth of wall time"},
	{name: "fabric_sharded", procs: 2, build: buildFabricSharded,
		why: "a 4-leaf fabric on the sharded engine at Shards=2: the only workload where the coordinator's barrier windows do any work"},
	{name: "pipe_perpkt", procs: 1, build: buildPipePerPkt,
		why: "bare forwarding of 64-byte packets, per-packet Process into the bucket queue at backlog 4096: rewrite and scheduler op dominate"},
	{name: "pipe_batch_deep", procs: 1, build: buildPipeBatchDeep,
		why: "the same stream through ApplyBatch into the heap PIFO at backlog 65536: rewrite is cheap and the log-n heap dominates"},
	{name: "control_churn", procs: 2, build: buildControlChurn,
		why: "a closed loop of PUT /v1/tenants against a 1024-tenant controller beside one pinned-epoch reader: the control plane, no data-plane layer runs"},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// setupReps is how often a run sets the workload up; setup_s is the
	// median, so one cold or disturbed set-up does not decide it.
	setupReps = 3
	// minPasses keeps a median meaningful when --seconds is tiny.
	minPasses = 3
)

// setUp builds the workload reps times, keeps the last instance and returns
// every set-up's duration in seconds.
func setUp(s spec, seed int64, scale float64, reps int) (runner, []float64, error) {
	var r runner
	var secs []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			if why := r.close(); len(why) > 0 {
				return nil, nil, fmt.Errorf("set-up of %s: %v", s.name, why)
			}
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = s.build(seed, scale); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", s.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return r, secs, nil
}

// measured is everything a run of one workload produced.
type measured struct {
	passes    []pass
	setups    []float64
	mem       memDelta
	attempted uint64
	failed    uint64
	why       []string
}

// memDelta is the Go runtime's activity over a set of passes.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseNs             uint64
}

func memNow() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcs: a.gcs - b.gcs, pauseNs: a.pauseNs - b.pauseNs}
}

// timedPasses runs untraced passes for at least seconds (and at least
// minPasses), counting allocations around them. Each pass starts from a
// collected heap, so the garbage of one pass is not the next one's GC bill
// and peak RSS does not depend on where the pacer happened to run.
func timedPasses(r runner, seconds float64, m *measured) {
	runtime.GC()
	before := memNow()
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		runtime.GC()
		m.add(r.pass(nil, n))
	}
	m.mem = memNow().since(before)
}

// add books one pass.
func (m *measured) add(p pass) {
	m.passes = append(m.passes, p)
	m.attempted += p.attempted
	m.failed += p.failed
	m.why = append(m.why, p.why...)
}

func (m *measured) costs() []float64 {
	xs := make([]float64, len(m.passes))
	for i, p := range m.passes {
		xs[i] = p.nsPerOp
	}
	return xs
}

func (m *measured) ops() (n uint64) {
	for _, p := range m.passes {
		n += p.ops
	}
	return n
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goLayer reports the runtime's per-layer metrics for a set of passes.
func goLayer(d memDelta, ops uint64) map[string]float64 {
	return map[string]float64{
		"go.gc_cycles":          float64(d.gcs),
		"go.gc_pause_total_ms":  float64(d.pauseNs) / 1e6,
		"go.alloc_bytes_per_op": ratio(float64(d.bytes), float64(ops)),
		"go.allocs_per_kop":     ratio(float64(d.mallocs)*1000, float64(ops)),
	}
}

// scaled shrinks a count for the smoke test, never below min.
func scaled(n int, scale float64, min int) int {
	if v := int(float64(n) * scale); v > min {
		return v
	}
	return min
}
