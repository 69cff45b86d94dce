// Command bench is the repository's benchmark: six seeded workloads over the
// Figure-4 simulator, the bare data plane and the control plane, three
// end-to-end metrics defined on every workload, and — in a separate traced
// run — per-layer metrics that are set against the end-to-end cost. It
// measures every layer from outside, by timing calls into public functions;
// see README.md.
//
// The acceptance driver runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload the harness
// runs every workload, each in a fresh child process.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"qvisor/internal/prof"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 10
	// runBudget is how long one workload run may take, set-up included; the
	// contract allows 180 s. A run past it stops with a non-zero code.
	runBudget = 170 * time.Second
	// smokeScale shrinks every workload for the unit tests.
	smokeScale = 1.0 / 50
	// traceDir is where a traced run writes trace-<workload>.json, relative
	// to the root of the checkout, where run.sh starts the harness.
	traceDir = "bench/out"
	// maxTracedReps bounds the passes of a traced run.
	maxTracedReps = 16
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: flows, (tenant, rank) stream, mutation sequence")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		aa       = flag.Bool("aa", false, "run the full set twice and compare the two against each metric's bound, then check seed 2 for correctness")
		smoke    = flag.Bool("smoke", false, "run every workload at 1/50 scale in this process and fail on any failed op")
		manifest = flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
		list     = flag.Bool("metrics", false, "print every metric's name, unit, direction, bound and definition, and exit")
		ref      = flag.String("ref", "", "with no --workload: also run traced and write the reference numbers of this commit to this path")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if err := validateCatalog(endToEnd, perLayer); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case *manifest != "":
		err = writeManifest(*manifest)
	case *list:
		printCatalog(os.Stdout)
	case *smoke:
		err = runSmoke(os.Stdout, *seed, traceDir)
	case *workload != "":
		time.AfterFunc(runBudget, func() {
			fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v budget\n", *workload, runBudget)
			os.Exit(3)
		})
		err = runWorkload(os.Stdout, *workload, *seed, *seconds, *traced != 0, 1, traceDir)
	case *aa:
		err = runAA(os.Stdout, *seed, *seconds)
	default:
		err = runAll(os.Stdout, *seed, *seconds, *traced != 0, *ref)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// errIncorrect marks a run whose outputs failed a correctness check; the
// result line is still printed, the exit code is non-zero.
var errIncorrect = errors.New("correctness check failed")

// environment is attached to every report.
type environment struct {
	Machine    string `json:"machine"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func env() environment {
	host, _ := os.Hostname() // a label only; empty is fine
	return environment{
		Machine:    fmt.Sprintf("%s/%s %s", runtime.GOOS, runtime.GOARCH, host),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
	}
}

// detail is the line a run prints before its result: the spread behind each
// timing, which the result line's contract has no room for.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Unresolved bool               `json:"unresolved"` // fewer CPUs than the workload's goroutines
	Env        environment        `json:"env"`
	Summaries  map[string]summary `json:"summaries,omitempty"`
}

const detailPrefix = "detail "

// runWorkload runs one workload in this process and prints its report, the
// detail line and, last, the result line.
func runWorkload(w io.Writer, name string, seed int64, seconds float64, traced bool, scale float64, traceDir string) error {
	s, ok := findSpec(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	e := env()
	fmt.Fprintf(w, "workload %s  seed=%d seconds=%g trace=%t  machine=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		name, seed, seconds, traced, e.Machine, e.NProc, e.GOMAXPROCS, e.Go, e.Commit)
	fmt.Fprintf(w, "  why: %s\n", s.why)
	d := detail{Workload: name, Seed: seed, Traced: traced, Env: e, Summaries: map[string]summary{}}
	if e.GOMAXPROCS < s.procs {
		d.Unresolved = true
		fmt.Fprintf(w, "  UNRESOLVED: %d goroutines do this workload's work and GOMAXPROCS is %d; its timings measure time-slicing\n",
			s.procs, e.GOMAXPROCS)
	}

	var res result
	var err error
	if traced {
		res, err = runTraced(w, s, seed, seconds, scale, traceDir)
	} else {
		res, err = runTimed(w, s, seed, seconds, scale, &d)
	}
	if err != nil {
		return err
	}
	dj, err := json.Marshal(d)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n%s\n", detailPrefix, dj, rj)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runTimed is the untraced run: repeated set-up, then passes for the given
// time, then the end-to-end metrics.
func runTimed(w io.Writer, s spec, seed int64, seconds float64, scale float64, d *detail) (result, error) {
	r, setups, err := setUp(s, seed, scale, setupReps)
	if err != nil {
		return result{}, err
	}
	m := measured{setups: setups}
	timedPasses(r, seconds, &m)
	r.describe(w)
	if why := r.close(); len(why) > 0 {
		m.failed += uint64(len(why))
		m.why = append(m.why, why...)
	}
	got := map[string]float64{
		"ns_per_op":   median(m.costs()),
		"setup_s":     median(m.setups),
		"peak_rss_mb": peakRSSMB(),
	}
	d.Summaries["ns_per_op"] = summarize(m.costs())
	d.Summaries["setup_s"] = summarize(m.setups)
	for _, c := range endToEnd {
		line := fmt.Sprintf("  %-12s = %.6g %s", c.Name, got[c.Name], c.Unit)
		if sm, ok := d.Summaries[c.Name]; ok {
			line += fmt.Sprintf("   (median of %d; q1 %.6g, q3 %.6g, min %.6g, max %.6g)", sm.N, sm.Q1, sm.Q3, sm.Min, sm.Max)
		}
		fmt.Fprintln(w, line)
	}
	gl := goLayer(m.mem, m.ops())
	fmt.Fprintf(w, "  allocs_per_kop = %.4g, failed_ops_share = %d/%d\n", gl["go.allocs_per_kop"], m.failed, m.attempted)
	return finish(w, endToEnd, got, m.attempted, m.failed, m.why)
}

// runTraced is the traced run: one set-up, a few untraced passes to compare
// against, then the workload's per-layer measurement with spans recorded.
func runTraced(w io.Writer, s spec, seed int64, seconds float64, scale float64, traceDir string) (result, error) {
	r, _, err := setUp(s, seed, scale, 1)
	if err != nil {
		return result{}, err
	}
	// A third of --seconds goes to untraced passes, a third to the same
	// number of traced ones; counting runs and micro-replays take the rest.
	var m measured
	runtime.GC()
	before := memNow()
	first := r.pass(nil, 0)
	m.add(first)
	reps := min(max(int(seconds/3/(first.wall/1e9)), 1), maxTracedReps)
	for i := 1; i < reps; i++ {
		m.add(r.pass(nil, i))
	}
	m.mem = memNow().since(before)
	t := newTracer()
	got, err := r.layers(t, m.passes, reps)
	if err != nil {
		r.close()
		return result{}, err
	}
	for k, v := range goLayer(m.mem, m.ops()) {
		got[k] = v
	}
	// One more untraced pass under the CPU profiler: the cross-check for the
	// cost model (go tool pprof -top .bench_build/qvisor-bench <file>).
	profPath, err := profilePass(r, traceDir, s.name)
	if err != nil {
		r.close()
		return result{}, err
	}
	fmt.Fprintf(w, "  CPU profile of one untraced pass written to %s\n", profPath)
	r.describe(w)
	if why := r.close(); len(why) > 0 {
		m.failed += uint64(len(why))
		m.why = append(m.why, why...)
	}
	path, err := t.flush(traceDir, s.name, seed)
	if err != nil {
		return result{}, fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(w, "  %d spans, trace written to %s; self time by span name:\n", len(t.spans), path)
	self := selfTimes(t.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "    %-22s %12.3f ms\n", n, float64(self[n])/1e6)
	}
	for _, c := range perLayer {
		if v, ok := got[c.Name]; ok {
			fmt.Fprintf(w, "  %-30s = %.6g %s\n", c.Name, v, c.Unit)
		}
	}
	if v, ok := got["model.explained_share"]; ok {
		fmt.Fprintf(w, "  model: layers explain %.1f%% of the measured cost (tolerance found: %.1f%%)\n", 100*v, 100*math.Abs(1-v))
	}
	return finish(w, perLayer, got, m.attempted, m.failed, m.why)
}

// profilePass runs pass 0 again with the CPU profiler on and writes the
// profile next to the trace.
func profilePass(r runner, dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "cpu-"+workload+".prof")
	stop, err := prof.Start(path, "")
	if err != nil {
		return "", err
	}
	p := r.pass(nil, 0)
	if err := stop(); err != nil {
		return "", err
	}
	if p.failed > 0 {
		return "", fmt.Errorf("profiled pass: %v", p.why)
	}
	return path, nil
}

// finish assembles the result line's content.
func finish(w io.Writer, catalog []metric, got map[string]float64, attempted, failed uint64, why []string) (result, error) {
	metrics, err := fill(catalog, got)
	if err != nil {
		return result{}, err
	}
	for _, line := range why {
		fmt.Fprintf(w, "  FAILED: %s\n", line)
	}
	if attempted == 0 {
		return result{}, errors.New("no op was attempted")
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// runSmoke runs every workload, timed and traced, at 1/50 scale in this
// process. Any failed op is an error.
func runSmoke(w io.Writer, seed int64, traceDir string) error {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			if err := runWorkload(w, s.name, seed, 0.05, traced, smokeScale, traceDir); err != nil {
				return fmt.Errorf("%s (trace=%t): %w", s.name, traced, err)
			}
		}
	}
	return nil
}

// ---- every workload, each in a child process -------------------------------

// childRun is what the parent keeps of one child.
type childRun struct {
	detail detail
	result result
}

// runChild re-executes this binary for one workload — a clean heap and a
// clean ru_maxrss per workload — passes its report through, and parses its
// detail and result lines. A child that outlives its budget is killed.
func runChild(w io.Writer, name string, seed int64, seconds float64, traced bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget+10*time.Second)
	defer cancel()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", tr)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(w, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return childRun{}, fmt.Errorf("%s exceeded its time budget and was killed", name)
	}
	var c childRun
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &c.detail); err != nil {
				return c, fmt.Errorf("%s: detail line: %w", name, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &c.result); err != nil {
		if runErr != nil {
			return c, fmt.Errorf("%s: %w", name, runErr)
		}
		return c, fmt.Errorf("%s: result line: %w", name, err)
	}
	if !c.result.Correct {
		return c, fmt.Errorf("%s: %w (%d of %d ops)", name, errIncorrect, c.result.Failed, c.result.Attempted)
	}
	return c, runErr
}

// runSet runs every workload once and returns the children by workload.
func runSet(w io.Writer, seed int64, seconds float64, traced bool) (map[string]childRun, error) {
	set := make(map[string]childRun)
	var firstErr error
	for _, s := range specs {
		c, err := runChild(w, s.name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintf(w, "  ERROR: %v\n", err)
			if firstErr == nil {
				firstErr = err
			}
		}
		set[s.name] = c
	}
	return set, firstErr
}

func runAll(w io.Writer, seed int64, seconds float64, traced bool, refPath string) error {
	set, err := runSet(w, seed, seconds, traced)
	printTable(w, set, traced)
	if err != nil || refPath == "" {
		return err
	}
	layers, err := runSet(w, seed, seconds, true)
	printTable(w, layers, true)
	if err != nil {
		return err
	}
	return writeReference(refPath, seed, seconds, set, layers)
}

// printCatalog lists every metric with its definition.
func printCatalog(w io.Writer) {
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-30s %-7s %-6s bound %2.0f%%  %s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.doc)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-30s %-7s %-6s            %s\n", m.Name, m.Unit, m.Better, m.doc)
	}
}

// printTable prints one row per metric, one column per workload.
func printTable(w io.Writer, set map[string]childRun, traced bool) {
	fmt.Fprintf(w, "\n%-30s %-7s", "metric", "unit")
	for _, s := range specs {
		fmt.Fprintf(w, " %15s", s.name)
	}
	fmt.Fprintln(w)
	catalog := endToEnd
	if traced {
		catalog = perLayer
	}
	for _, m := range catalog {
		fmt.Fprintf(w, "%-30s %-7s", m.Name, m.Unit)
		for _, s := range specs {
			fmt.Fprintf(w, " %15.6g", set[s.name].result.Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-30s %-7s", "failed/attempted ops", "count")
	for _, s := range specs {
		r := set[s.name].result
		fmt.Fprintf(w, " %15s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
	}
	fmt.Fprintln(w)
}

// ---- A/A ------------------------------------------------------------------

// runAA runs the full set twice back to back and judges, per end-to-end
// metric and workload, whether two runs of the same code agree within the
// metric's bound. It then runs seed+1 once: numbers may differ, correctness
// may not.
func runAA(w io.Writer, seed int64, seconds float64) error {
	a, errA := runSet(w, seed, seconds, false)
	b, errB := runSet(w, seed, seconds, false)
	fmt.Fprintf(w, "\nA/A: two runs of the same code, seed %d\n", seed)
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread", "bound", "verdict")
	failed := false
	for _, s := range specs {
		for _, m := range endToEnd {
			va, vb := a[s.name].result.Metrics[m.Name].Value, b[s.name].result.Metrics[m.Name].Value
			worse := vb/va - 1
			if m.Better == "higher" {
				worse = va/vb - 1
			}
			// The spread is the wider interquartile range of the two runs'
			// own samples (passes, set-ups) as a share of the median; a
			// single-valued metric has none.
			sp := 0.0
			for _, c := range []childRun{a[s.name], b[s.name]} {
				if sm, ok := c.detail.Summaries[m.Name]; ok && sm.Median != 0 {
					if v := (sm.Q3 - sm.Q1) / sm.Median; v > sp {
						sp = v
					}
				}
			}
			verdict := "PASS"
			switch {
			case a[s.name].detail.Unresolved && m.Name != "peak_rss_mb", sp > m.Bound:
				verdict = "UNRESOLVED"
			case math.Abs(worse) > m.Bound:
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				s.name, m.Name, va, vb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\nseed %d: correctness only\n", seed+1)
	_, errC := runSet(w, seed+1, seconds/4, false)
	switch {
	case errA != nil:
		return errA
	case errB != nil:
		return errB
	case errC != nil:
		return errC
	case failed:
		return errors.New("two runs of the same code disagree beyond a metric's bound")
	}
	fmt.Fprintln(w, "every correctness check passed on both seeds")
	return nil
}

// ---- files the tool writes ---------------------------------------------------

// manifestFile is BENCHMARK.json: exactly the contract's keys.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metric           `json:"end_to_end"` // with bound
	PerLayer   []metric           `json:"per_layer"`  // bound omitted
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifestFile {
	mf := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		mf.Workloads = append(mf.Workloads, manifestWorkload{Name: s.name, Why: s.why})
	}
	return mf
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeManifest(path string) error { return writeJSONFile(path, buildManifest()) }

// referenceFile holds the numbers of one commit on one machine, written by
// the tool. This benchmark claims no gain.
type referenceFile struct {
	Claim      *string                       `json:"claim"`
	Env        environment                   `json:"env"`
	Seed       int64                         `json:"seed"`
	RunSeconds float64                       `json:"run_seconds"`
	EndToEnd   map[string]map[string]value   `json:"end_to_end"`
	Spread     map[string]map[string]summary `json:"end_to_end_samples"`
	PerLayer   map[string]map[string]value   `json:"per_layer"`
}

func writeReference(path string, seed int64, seconds float64, timed, layers map[string]childRun) error {
	rf := referenceFile{Env: env(), Seed: seed, RunSeconds: seconds,
		EndToEnd: map[string]map[string]value{}, Spread: map[string]map[string]summary{},
		PerLayer: map[string]map[string]value{}}
	for _, s := range specs {
		rf.EndToEnd[s.name] = timed[s.name].result.Metrics
		rf.Spread[s.name] = timed[s.name].detail.Summaries
		rf.PerLayer[s.name] = layers[s.name].result.Metrics
	}
	return writeJSONFile(path, rf)
}
