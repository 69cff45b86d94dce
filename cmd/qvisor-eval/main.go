// Command qvisor-eval regenerates the paper's evaluation artifacts:
//
//	-experiment fig4a     Figure 4a: mean FCT, pFabric flows in (0,100KB)
//	-experiment fig4b     Figure 4b: mean FCT, pFabric flows in [1MB,∞)
//	-experiment fig3      Figure 3: exact rank transformations and PIFO order
//	-experiment quant     Ablation A1: quantization granularity sweep
//	-experiment queues    Ablation A2: strict-priority queue-count sweep
//	-experiment runtime   Ablation A3: static vs runtime-adaptive synthesis
//	-experiment shift     Figure-2 traffic-shift scenario
//	-experiment churn     Control-plane churn vs data-plane disruption (policy epochs)
//	-experiment scaling   Core scaling: sharded engine wall time + fidelity vs shards=1
//
// fig4a/fig4b sweep all six schemes over loads 0.2–0.8 on the scaled
// topology (12 hosts, 1% flow sizes; see DESIGN.md) and print one table row
// per scheme. Pass -paper for the paper-scale topology (slow: hours).
//
// Sweeps fan out over a worker pool (-workers, default GOMAXPROCS); the
// parallel sweep is bit-identical to -workers=1. Pass -seeds N to repeat
// every (scheme, load) cell over N derived workload seeds and report
// mean±stderr instead of a single trial. -progress=false silences the
// per-run progress lines on stderr.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"qvisor"
	"qvisor/internal/experiments"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/prof"
	"qvisor/internal/sched"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/stats"
	"qvisor/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qvisor-eval:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qvisor-eval", flag.ContinueOnError)
	exp := fs.String("experiment", "fig4a", "fig4a, fig4b, fig3, quant, queues, backends, runtime, shift, churn, multi, inversions, scaling")
	horizon := fs.Duration("horizon", 100*time.Millisecond, "traffic window per run")
	paper := fs.Bool("paper", false, "paper-scale topology (slow)")
	seed := fs.Int64("seed", 1, "workload seed")
	loadsFlag := fs.String("loads", "0.2,0.3,0.4,0.5,0.6,0.7,0.8", "comma-separated loads")
	csvPath := fs.String("csv", "", "also write the raw series to a CSV file (fig4a/fig4b)")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	seeds := fs.Int("seeds", 1, "trials per (scheme, load) cell, over derived seeds (fig4a/fig4b)")
	progress := fs.Bool("progress", true, "report per-run sweep progress on stderr")
	shardsFlag := fs.String("shards", "1,2,4",
		"comma-separated shard counts for -experiment scaling")
	metricsPath := fs.String("metrics", "",
		`write a JSON metrics snapshot after the experiment ("-" = stdout; sweeps aggregate across runs)`)
	tracePerfetto := fs.String("trace-perfetto", "",
		"write a Chrome trace-event JSON of the recorded packet events (load in ui.perfetto.dev)")
	traceSample := fs.Uint64("trace-sample", 64, "record only flows with ID %% N == 0 (with -trace-perfetto)")
	sloOn := fs.Bool("slo", false, "run the online fidelity watchdog and print its report on stderr")
	sloSample := fs.Uint64("slo-sample", slo.DefaultSampleN,
		"watchdog flow sampling: mirror only flows with ID %% N == 0 (1 = every packet)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "qvisor-eval:", perr)
		}
	}()
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, have %d", *seeds)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), have %d", *workers)
	}

	// fig3 and inversions run no simulation, and churn's epoch check
	// records its own unsampled trace: refuse the observer flags the
	// experiment cannot honour rather than write an empty file.
	switch {
	case (*exp == "fig3" || *exp == "inversions") && (*sloOn || *metricsPath != "" || *tracePerfetto != ""):
		return fmt.Errorf("-experiment %s runs no simulation: -slo, -metrics and -trace-perfetto do not apply", *exp)
	case *exp == "churn" && *tracePerfetto != "":
		return fmt.Errorf("-experiment churn records its own trace for the epoch check: -trace-perfetto does not apply")
	}

	cfg := experiments.ScaledConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	cfg.Horizon = sim.Time(*horizon)
	cfg.Seed = *seed
	if *metricsPath != "" {
		cfg.Registry = obs.NewRegistry()
		defer func() {
			if werr := writeSnapshot(*metricsPath, cfg.Registry); werr != nil {
				fmt.Fprintln(os.Stderr, "qvisor-eval: metrics snapshot:", werr)
			}
		}()
	}

	traced := *tracePerfetto != ""
	if traced {
		cfg.Trace = trace.NewFlightRecorder(trace.Options{FlowSample: *traceSample, RingSize: 1 << 18})
		defer func() {
			if werr := trace.ExportPerfetto(*tracePerfetto, cfg.Trace, os.Stderr); werr != nil {
				fmt.Fprintln(os.Stderr, "qvisor-eval: perfetto trace:", werr)
			}
		}()
	}

	if *sloOn {
		// One watchdog spans every run of the experiment (sweeps aggregate
		// across cells; the window ring folds restarted clocks into earlier
		// windows), and the report lands on stderr after the tables.
		cfg.Watch = slo.New(slo.Config{SampleN: *sloSample})
		defer func() {
			if werr := slo.WriteReport(os.Stderr, cfg.Watch.Snapshot()); werr != nil {
				fmt.Fprintln(os.Stderr, "qvisor-eval: slo report:", werr)
			}
		}()
	}

	loads, err := parseLoads(*loadsFlag)
	if err != nil {
		return err
	}

	switch *exp {
	case "fig4a", "fig4b":
		bin := experiments.BinSmall
		if *exp == "fig4b" {
			bin = experiments.BinLarge
		}
		rc := experiments.RunnerConfig{Workers: *workers}
		if traced && *workers != 1 {
			// Concurrent runs would interleave nondeterministically in the
			// shared ring; serialize so the trace timeline stays readable.
			rc.Workers = 1
			fmt.Fprintln(os.Stderr, "qvisor-eval: -trace-perfetto forces -workers=1 for a coherent timeline")
		}
		if *sloOn && *workers != 1 {
			// The watchdog is mutex-safe, but concurrent runs interleave
			// their clocks in the shared window ring; serialize so the
			// sweep's SLI report is reproducible.
			rc.Workers = 1
			fmt.Fprintln(os.Stderr, "qvisor-eval: -slo forces -workers=1 for a reproducible report")
		}
		start := time.Now()
		if *progress {
			rc.Progress = func(done, total int, p experiments.Point) {
				fmt.Fprintf(os.Stderr, "[%d/%d] %v (%.1fs)\n",
					done, total, p, time.Since(start).Seconds())
			}
		}
		if *seeds > 1 {
			trialSeeds := experiments.TrialSeeds(cfg.Seed, *seeds)
			trials, err := experiments.RunTrials(cfg, experiments.Schemes, loads, trialSeeds, rc)
			if err != nil {
				return err
			}
			experiments.WriteTrialTable(os.Stdout, trials, bin, loads)
			if *csvPath != "" {
				if err := writeTrialCSV(*csvPath, trials); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
			}
			return nil
		}
		results, err := experiments.SweepParallel(cfg, experiments.Schemes, loads, rc)
		if err != nil {
			return err
		}
		experiments.WriteTable(os.Stdout, results, bin, loads)
		if *csvPath != "" {
			if err := writeCSV(*csvPath, results); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
		return nil
	case "fig3":
		return runFig3()
	case "quant":
		results, err := experiments.AblationQuantization(cfg,
			[]int64{2, 4, 16, 64, 1 << 10, 1 << 20}, 0.6)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A1: quantization levels (QVISOR pfabric + edf, load 0.6)")
		for _, r := range results {
			fmt.Printf("  small-flow mean FCT %v  (n=%d)\n", r.Small.Mean, r.Small.Count)
		}
		return nil
	case "queues":
		queues := []int{2, 4, 8, 16, 32}
		results, err := experiments.AblationQueues(cfg, queues, 0.6)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A2: strict-priority queues (QVISOR pfabric >> edf, load 0.6)")
		for i, r := range results {
			fmt.Printf("  %2d queues: small-flow mean FCT %v  (n=%d)\n",
				queues[i], r.Small.Mean, r.Small.Count)
		}
		return nil
	case "backends":
		results, err := experiments.AblationBackends(cfg, 0.6)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A4: deployment backends (QVISOR pfabric >> edf, load 0.6)")
		for _, br := range results {
			fmt.Printf("  %-10s small-flow mean FCT %v  large %v  drops %d\n",
				br.Backend, br.Result.Small.Mean, br.Result.Large.Mean, br.Result.Counters.Dropped)
		}
		return nil
	case "inversions":
		results, err := experiments.InversionStudy(100_000, *seed)
		if err != nil {
			return err
		}
		fmt.Println("Inversion study: rank-order fidelity per scheduler (QVISOR a + b policy)")
		for _, r := range results {
			fmt.Printf("  %-12s %7d inversions / %7d dequeues (%5.1f%%)  drops %d\n",
				r.Scheduler, r.Inversions, r.Dequeues, 100*r.Rate, r.Drops)
		}
		return nil
	case "multi":
		results, err := experiments.MultiObjective(cfg, 0.85)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A5: multi-objective scheduling (single tenant, load 0.85)")
		for _, r := range results {
			fmt.Printf("  %-10s small-flow mean FCT %v  large-flow %v\n",
				r.Name, r.Small.Mean, r.Large.Mean)
		}
		return nil
	case "runtime":
		res, err := experiments.AblationRuntime(cfg, 0.6)
		if err != nil {
			return err
		}
		fmt.Println("Ablation A3: static vs runtime-adaptive synthesis (mis-declared bounds)")
		fmt.Printf("  static:   %v\n", res.Static)
		fmt.Printf("  adaptive: %v  (resyntheses: %d)\n", res.Adaptive, res.Resyntheses)
		return nil
	case "churn":
		ccfg := experiments.ScaledChurnConfig()
		ccfg.Config = cfg
		// Keep the paper default of ~5k updates/sec at whatever horizon.
		ccfg.Updates = int(float64(ccfg.Horizon) / float64(sim.Second) * 5000)
		res, err := experiments.RunChurn(ccfg)
		if err != nil {
			return err
		}
		rate := float64(res.UpdatesApplied) / (float64(ccfg.Horizon) / float64(sim.Second))
		fmt.Println("Control-plane churn: spec updates racing a live data plane")
		fmt.Printf("  updates applied:     %d/%d (%.0f/sec)\n",
			res.UpdatesApplied, res.UpdatesScheduled, rate)
		fmt.Printf("  epochs published:    %d  (peak draining %d, after run %d)\n",
			res.Generations, res.MaxDraining, res.DrainingAfter)
		fmt.Printf("  delivered/dropped:   %d/%d\n",
			res.Counters.Delivered, res.Counters.Dropped)
		fmt.Printf("  tier cache:          %d hits, %d misses, %d full recompiles\n",
			res.Resynth.TierHits, res.Resynth.TierMisses, res.Resynth.Full)
		fmt.Printf("  epoch conformance:   %s\n", res.Check)
		lat, err := experiments.MeasureResynthLatency(1024, 50, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("  resynthesis latency: incremental %s, full %s (%.1fx) at %d tenants\n",
			time.Duration(lat.IncrementalNs), time.Duration(lat.FullNs),
			lat.Speedup, lat.Tenants)
		return nil
	case "shift":
		res, err := experiments.TrafficShift(cfg, 0.4)
		if err != nil {
			return err
		}
		fmt.Println("Figure-2 traffic shift: interactive + deadline >> background")
		fmt.Printf("  interactive small flows (background active): %v\n", res.InteractiveFCT)
		fmt.Printf("  background bulk flows:                       %v\n", res.BackgroundFCT)
		fmt.Printf("  deadline packets on time:                    %.1f%%\n", 100*res.DeadlineMet)
		return nil
	case "scaling":
		shardCounts, err := parseShards(*shardsFlag)
		if err != nil {
			return err
		}
		// A shard owns at least one leaf pod, so counts beyond the topology
		// can't run — drop them instead of failing the whole sweep.
		kept := shardCounts[:0]
		for _, n := range shardCounts {
			if n > cfg.Leaves {
				fmt.Fprintf(os.Stderr, "qvisor-eval: skipping %d shards (> %d leaves)\n", n, cfg.Leaves)
				continue
			}
			kept = append(kept, n)
		}
		shardCounts = kept
		load := loads[0]
		fmt.Printf("Core scaling: %v at load %.2f (fidelity checked against the single-threaded run)\n",
			experiments.QvisorShare, load)
		points, err := experiments.RunScaling(cfg, experiments.QvisorShare, load, shardCounts)
		if err != nil {
			return err
		}
		experiments.WriteScalingTable(os.Stdout, points)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

// runFig3 prints the paper's Figure-3 walkthrough: the synthesized
// transformations and the resulting PIFO output order.
func runFig3() error {
	hv, err := qvisor.New([]*qvisor.Tenant{
		{ID: 1, Name: "T1", Bounds: qvisor.Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: qvisor.Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: qvisor.Bounds{Lo: 3, Hi: 5}, Levels: 2},
	}, "T1 >> T2 + T3", qvisor.Options{Synth: qvisor.SynthOptions{Base: 1}})
	if err != nil {
		return err
	}
	fmt.Println("Figure 3: T1 (pFabric) {7,8,9}, T2 (EDF) {1,3}, T3 (FQ) {3,5}")
	fmt.Print(hv.Policy.Describe())
	fmt.Println("transformations:")
	for _, tc := range []struct {
		id    pkt.TenantID
		name  string
		ranks []int64
	}{
		{1, "T1", []int64{7, 8, 9}},
		{2, "T2", []int64{1, 3}},
		{3, "T3", []int64{3, 5}},
	} {
		tr, _ := hv.Policy.TransformOf(tc.name)
		var in, out []string
		for _, r := range tc.ranks {
			in = append(in, strconv.FormatInt(r, 10))
			out = append(out, strconv.FormatInt(tr.Apply(r), 10))
		}
		fmt.Printf("  %s: {%s} -> {%s}\n", tc.name, strings.Join(in, ","), strings.Join(out, ","))
	}
	// Enqueue the example arrival sequence, drain the PIFO.
	arrivals := []struct {
		tenant pkt.TenantID
		rank   int64
	}{
		{2, 3}, {3, 5}, {1, 9}, {1, 7}, {2, 1}, {3, 3}, {1, 8},
	}
	pifo := sched.NewPIFO(sched.Config{})
	for i, a := range arrivals {
		p := &pkt.Packet{ID: uint64(i), Tenant: a.tenant, Rank: a.rank, Size: 100}
		hv.Process(p)
		pifo.Enqueue(p)
	}
	fmt.Print("PIFO output (tenant:joint-rank): ")
	var outs []string
	for p := pifo.Dequeue(); p != nil; p = pifo.Dequeue() {
		outs = append(outs, fmt.Sprintf("T%d:%d", p.Tenant, p.Rank))
	}
	fmt.Println(strings.Join(outs, " "))
	return nil
}

// writeCSV dumps every (scheme, load) cell with both bins and full
// percentile detail, for external plotting.
func writeCSV(path string, results []experiments.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"scheme", "load", "bin", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}
	if err := w.Write(header); err != nil {
		return err
	}
	ms := func(t sim.Time) string {
		return strconv.FormatFloat(float64(t)/float64(sim.Millisecond), 'f', 6, 64)
	}
	for _, r := range results {
		for _, row := range []struct {
			bin string
			sum stats.Summary
		}{
			{"small", r.Small},
			{"large", r.Large},
			{"all", r.All},
		} {
			rec := []string{
				r.Scheme.String(),
				strconv.FormatFloat(r.Load, 'f', 2, 64),
				row.bin,
				strconv.Itoa(row.sum.Count),
				ms(row.sum.Mean),
				ms(row.sum.P50),
				ms(row.sum.P95),
				ms(row.sum.P99),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// writeTrialCSV dumps every (scheme, load, bin) aggregate of a
// repeated-trial sweep as mean ± stderr rows, for external plotting with
// error bars.
func writeTrialCSV(path string, trials []experiments.Trial) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := []string{"scheme", "load", "bin", "trials", "mean_ms", "stderr_ms"}
	if err := w.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	for _, t := range trials {
		for _, row := range []struct {
			bin string
			sum stats.Sample
		}{
			{"small", t.SmallMs},
			{"large", t.LargeMs},
		} {
			rec := []string{
				t.Scheme.String(),
				strconv.FormatFloat(t.Load, 'f', 2, 64),
				row.bin,
				strconv.Itoa(row.sum.N),
				ff(row.sum.Mean),
				ff(row.sum.Stderr),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

// writeSnapshot dumps the registry as indented JSON to path ("-" =
// stdout).
func writeSnapshot(path string, reg *obs.Registry) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(reg.Snapshot())
}

func parseShards(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("no shard counts given")
	}
	return counts, nil
}

func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		l, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q", part)
		}
		loads = append(loads, l)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no loads given")
	}
	return loads, nil
}
