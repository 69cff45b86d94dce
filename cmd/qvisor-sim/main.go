// Command qvisor-sim runs a single packet-level simulation of one
// Figure-4 scheme at one load and prints the flow-completion-time
// statistics and packet counters.
//
// Example:
//
//	qvisor-sim -scheme qvisor-share -load 0.6 -horizon 100ms
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/experiments"
	"qvisor/internal/prof"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

var schemeNames = map[string]experiments.Scheme{
	"fifo":           experiments.FIFOBoth,
	"pifo-naive":     experiments.PIFONaive,
	"pifo-ideal":     experiments.PIFOIdeal,
	"qvisor-edf":     experiments.QvisorEDFFirst,
	"qvisor-share":   experiments.QvisorShare,
	"qvisor-pfabric": experiments.QvisorPFabricFirst,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qvisor-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qvisor-sim", flag.ContinueOnError)
	scheme := fs.String("scheme", "qvisor-share",
		"scheme: fifo, pifo-naive, pifo-ideal, qvisor-edf, qvisor-share, qvisor-pfabric")
	load := fs.Float64("load", 0.6, "pFabric tenant load (0,1]")
	horizon := fs.Duration("horizon", 100*time.Millisecond, "traffic generation window")
	paper := fs.Bool("paper", false, "paper-scale topology (144 hosts, unscaled flow sizes; slow)")
	seed := fs.Int64("seed", 1, "workload seed")
	workloadName := fs.String("workload", "datamining", "pFabric tenant workload: datamining or websearch")
	queues := fs.Int("queues", 0, "queues for multi-queue backends")
	shards := fs.Int("shards", 0,
		"partition the fabric into N parallel shards (0 or 1 = single-threaded engine)")
	shardChan := fs.Int("shard-chan", 0, "cross-shard handoff channel capacity (0 = default)")
	backendSP := fs.Bool("sp-queues", false, "deploy QVISOR schemes on strict-priority queues instead of a PIFO")
	ports := fs.Bool("ports", false, "print the busiest ports' telemetry")
	flowsCSV := fs.String("flows", "", "replace the generated pFabric workload with this CSV flow trace")
	tracePath := fs.String("trace", "", "write a JSON-lines packet trace to this file")
	tracePerfetto := fs.String("trace-perfetto", "",
		"write a Chrome trace-event JSON to this file (load in ui.perfetto.dev)")
	traceSample := fs.Uint64("trace-sample", 1, "record only flows with ID %% N == 0")
	sloOn := fs.Bool("slo", false, "run the online fidelity watchdog and print its report")
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
			fmt.Fprintln(os.Stderr, "qvisor-sim:", perr)
		}
	}()
	s, ok := schemeNames[*scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	cfg := experiments.ScaledConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	cfg.Horizon = sim.Time(*horizon)
	cfg.Seed = *seed
	cfg.Workload = *workloadName
	cfg.FlowsCSV = *flowsCSV
	cfg.Shards = *shards
	cfg.ShardChanCap = *shardChan
	if *backendSP {
		cfg.Backend = core.BackendSPQueues
		cfg.Queues = *queues
	}
	topts := trace.Options{FlowSample: *traceSample}
	if *tracePerfetto != "" {
		// The Perfetto export is rendered from the ring after the run, so
		// size it generously; wrapping loses the oldest events (warned
		// below) — raise -trace-sample to cover longer runs.
		topts.RingSize = 1 << 18
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		cfg.Trace = trace.NewRecorder(w, topts)
		defer func() {
			fmt.Fprintf(os.Stderr, "trace: %d events written to %s\n", cfg.Trace.Count(), *tracePath)
		}()
	} else if *tracePerfetto != "" {
		cfg.Trace = trace.NewFlightRecorder(topts)
	}
	if *sloOn {
		cfg.Watch = slo.New(slo.Config{SampleN: *sloSample})
	}

	r, err := experiments.Run(cfg, s, *load)
	if err != nil {
		return err
	}
	if *tracePerfetto != "" {
		events, _ := cfg.Trace.Snapshot(trace.AllEvents)
		if n := cfg.Trace.Count(); n > uint64(len(events)) {
			fmt.Fprintf(os.Stderr,
				"trace: ring wrapped, keeping the most recent %d of %d events; raise -trace-sample\n",
				len(events), n)
		}
		if err := writePerfetto(*tracePerfetto, events); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace: %d events rendered to %s\n", len(events), *tracePerfetto)
	}
	fmt.Fprintf(out, "scheme:   %v\n", r.Scheme)
	fmt.Fprintf(out, "load:     %.2f\n", r.Load)
	fmt.Fprintf(out, "flows:    %d completed (pFabric tenant)\n", r.Flows)
	fmt.Fprintf(out, "small:    %v\n", r.Small)
	fmt.Fprintf(out, "large:    %v\n", r.Large)
	fmt.Fprintf(out, "all:      %v\n", r.All)
	if r.Counters.CBRSent > 0 {
		fmt.Fprintf(out, "deadline: %.1f%% of %d CBR packets on time\n",
			100*r.DeadlineMet, r.Counters.CBRDelivered)
	}
	c := r.Counters
	fmt.Fprintf(out, "packets:  data=%d retx=%d acks=%d cbr=%d delivered=%d dropped=%d\n",
		c.DataSent, c.Retransmits, c.AcksSent, c.CBRSent, c.Delivered, c.Dropped)
	if *ports {
		fmt.Fprintln(out, "busiest ports:")
		for _, ps := range r.TopPorts {
			fmt.Fprintf(out, "  %-16s util=%5.1f%%  tx=%d pkts / %d bytes  maxq=%dB\n",
				ps.Name, 100*ps.Utilization, ps.TxPackets, ps.TxBytes, ps.MaxQueuedBytes)
		}
	}
	if cfg.Watch != nil {
		if err := slo.WriteReport(out, cfg.Watch.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// writePerfetto renders events as a Chrome trace-event JSON file.
func writePerfetto(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := trace.WritePerfetto(w, events); err != nil {
		return err
	}
	return w.Flush()
}
