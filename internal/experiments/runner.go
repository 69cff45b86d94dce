package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"qvisor/internal/pkt"
	"qvisor/internal/sim"
	"qvisor/internal/stats"
)

// This file is the parallel sweep runner: the Figure-4 evaluation is a grid
// of independent (scheme, load, seed) simulations, so the runner fans the
// grid out over a worker pool and collects results order-independently.
//
// Determinism contract: Run is a pure function of (Config, Scheme, load) —
// all randomness flows from Config.Seed through private *rand.Rand sources
// (see the seeding note in package workload) and no production path reads
// the global math/rand source. Each worker therefore computes its points in
// isolation, results land in a slice slot keyed by point index, and a sweep
// with Workers=N is byte-identical to Workers=1 for every N. The workload
// is deliberately seeded from the run seed only — never from the scheme —
// so all schemes at a given (load, seed) face identical traffic, which is
// what makes the Figure-4 curves comparable.

// Point identifies one independent simulation of a sweep grid.
type Point struct {
	// Scheme is the Figure-4 scheme to run.
	Scheme Scheme
	// Load is the offered pFabric load.
	Load float64
	// Seed is the workload seed for this run (overrides Config.Seed).
	Seed int64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("%v load=%.2f seed=%d", p.Scheme, p.Load, p.Seed)
}

// Points expands the sweep grid in deterministic scheme-major order:
// scheme, then load, then seed. This is the order RunPoints returns
// results in, regardless of worker count, and matches the serial Sweep.
func Points(schemes []Scheme, loads []float64, seeds []int64) []Point {
	pts := make([]Point, 0, len(schemes)*len(loads)*len(seeds))
	for _, s := range schemes {
		for _, l := range loads {
			for _, sd := range seeds {
				pts = append(pts, Point{Scheme: s, Load: l, Seed: sd})
			}
		}
	}
	return pts
}

// TrialSeeds derives n decorrelated workload seeds from a base seed with a
// SplitMix64 mix. The first seed is the base itself, so a one-trial run
// reproduces the plain (unrepeated) sweep exactly; subsequent seeds are
// mixed rather than incremented because the harness reserves seed+1 for the
// CBR tenant (see experiments.Run) and adjacent raw seeds would correlate
// trials.
func TrialSeeds(base int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	seeds := make([]int64, n)
	seeds[0] = base
	x := uint64(base)
	for i := 1; i < n; i++ {
		// SplitMix64 (Steele et al.): a bijective avalanche mix.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		seeds[i] = int64(z)
	}
	return seeds
}

// RunnerConfig parametrizes a parallel sweep.
type RunnerConfig struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after each point completes with
	// the number of finished points, the grid size, and the point.
	// Invocations are serialized but arrive in completion order, which
	// under Workers > 1 is not the grid order.
	Progress func(done, total int, p Point)
}

func (rc RunnerConfig) workers() int {
	if rc.Workers > 0 {
		return rc.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunPoints executes every point on a pool of Workers goroutines and
// returns results in grid order: out[i] is the result of points[i],
// whatever the completion order. Aggregation is order-independent, so the
// returned slice is byte-identical to a serial run. On failure it returns
// the error of the lowest-indexed failing point (also worker-count
// independent).
//
// When Config leaves Pool and Engine nil, each worker builds one of each
// and reuses them across all its points, so trial N+1 runs on trial N's
// warm free lists. Pooling never affects results (packets are zeroed on
// release), which is what keeps Workers=N byte-identical to Workers=1.
// Callers that set Pool or Engine themselves must use Workers == 1 —
// neither is safe for concurrent use.
func RunPoints(cfg Config, points []Point, rc RunnerConfig) ([]Result, error) {
	out := make([]Result, len(points))
	errs := make([]error, len(points))
	jobs := make(chan int)
	var done int
	var mu sync.Mutex
	var wg sync.WaitGroup

	workers := rc.workers()
	if workers > len(points) {
		workers = len(points)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := cfg
			if wcfg.Pool == nil {
				wcfg.Pool = pkt.NewPool()
			}
			if wcfg.Engine == nil {
				wcfg.Engine = sim.New()
			}
			for i := range jobs {
				p := points[i]
				runCfg := wcfg
				runCfg.Seed = p.Seed
				// Zero the pool's accounting between trials; its free
				// list (the warm buffers) survives.
				runCfg.Pool.Reset()
				r, err := Run(runCfg, p.Scheme, p.Load)
				if err != nil {
					errs[i] = fmt.Errorf("scheme %v load %v seed %d: %w",
						p.Scheme, p.Load, p.Seed, err)
				} else {
					out[i] = r
				}
				if rc.Progress != nil {
					mu.Lock()
					done++
					rc.Progress(done, len(points), p)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SweepParallel runs every (scheme, load) cell at Config.Seed over a worker
// pool, returning results in the serial Sweep's scheme-major order.
func SweepParallel(cfg Config, schemes []Scheme, loads []float64, rc RunnerConfig) ([]Result, error) {
	return RunPoints(cfg, Points(schemes, loads, []int64{cfg.Seed}), rc)
}

// Trial is the repeated-seed aggregate of one (scheme, load) cell: the
// per-trial scalar metrics reduced to mean ± stderr. Times are in
// milliseconds.
type Trial struct {
	// Scheme and Load identify the cell.
	Scheme Scheme
	Load   float64
	// Seeds lists the workload seeds of the trials, in trial order.
	Seeds []int64
	// SmallMs and LargeMs aggregate the Figure-4a/4b mean FCTs (ms).
	SmallMs, LargeMs stats.Sample
	// DeadlineMet aggregates the CBR on-time fraction.
	DeadlineMet stats.Sample
	// Flows aggregates the completed pFabric flow count.
	Flows stats.Sample
	// Results holds the underlying per-trial results, in trial order.
	Results []Result
}

// RunTrials runs every (scheme, load) cell once per seed over a worker pool
// and reduces each cell's trials to mean ± stderr summaries. Cells are
// returned in scheme-major order; trials within a cell stay in seed order.
// The serial harness was too slow to offer repeated trials at all — with
// the pool, N seeds cost N/Workers sweeps of wall clock.
func RunTrials(cfg Config, schemes []Scheme, loads []float64, seeds []int64, rc RunnerConfig) ([]Trial, error) {
	if len(seeds) == 0 {
		seeds = []int64{cfg.Seed}
	}
	points := Points(schemes, loads, seeds)
	results, err := RunPoints(cfg, points, rc)
	if err != nil {
		return nil, err
	}
	ms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
	var out []Trial
	// points is scheme-major with seeds innermost, so each cell's trials
	// are a contiguous block of len(seeds) results.
	for i := 0; i < len(results); i += len(seeds) {
		block := results[i : i+len(seeds)]
		tr := Trial{
			Scheme:  points[i].Scheme,
			Load:    points[i].Load,
			Seeds:   append([]int64(nil), seeds...),
			Results: append([]Result(nil), block...),
		}
		var small, large, ddl, flows []float64
		for _, r := range block {
			if r.Small.Count > 0 {
				small = append(small, ms(r.Small.Mean))
			}
			if r.Large.Count > 0 {
				large = append(large, ms(r.Large.Mean))
			}
			ddl = append(ddl, r.DeadlineMet)
			flows = append(flows, float64(r.Flows))
		}
		tr.SmallMs = stats.NewSample(small)
		tr.LargeMs = stats.NewSample(large)
		tr.DeadlineMet = stats.NewSample(ddl)
		tr.Flows = stats.NewSample(flows)
		out = append(out, tr)
	}
	return out, nil
}
