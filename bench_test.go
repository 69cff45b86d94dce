package qvisor

// Benchmark harness: one benchmark per table/figure of the paper, plus the
// ablations indexed in DESIGN.md. Each Fig-4 benchmark runs the full
// packet-level simulation for every scheme at a representative load and
// reports the measured mean FCTs as custom metrics (ms), so
// `go test -bench` regenerates the paper's series shape.
//
// The topology is the laptop-scaled configuration (see
// experiments.ScaledConfig); cmd/qvisor-eval runs the full load sweep and
// can run the paper-scale topology.

import (
	"fmt"
	"testing"

	"qvisor/internal/experiments"
	"qvisor/internal/pkt"
	"qvisor/internal/sim"
)

func benchCfg() experiments.Config {
	cfg := experiments.ScaledConfig()
	cfg.Horizon = 50 * sim.Millisecond
	return cfg
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// benchFig4 runs all six schemes at the given load — fanned out over the
// worker pool, one scheme per worker — and reports the chosen bin's mean
// FCT per scheme. The pooled sweep is bit-identical to the serial one (see
// experiments.RunPoints), so the metrics are unchanged from the serial
// harness; only the wall clock shrinks.
func benchFig4(b *testing.B, bin experiments.Bin, load float64) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		results, err := experiments.SweepParallel(cfg, experiments.Schemes,
			[]float64{load}, experiments.RunnerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if i != b.N-1 {
			continue
		}
		for _, r := range results {
			sum := r.Small
			if bin == experiments.BinLarge {
				sum = r.Large
			}
			if sum.Count > 0 {
				b.ReportMetric(ms(sum.Mean), fmt.Sprintf("msFCT/%d", int(r.Scheme)))
			}
		}
	}
}

// BenchmarkFig4aSmallFlows regenerates Figure 4a's series (mean FCT of
// pFabric flows under 100 KB) at load 0.6. Metric msFCT/<scheme-index>
// follows the order of experiments.Schemes.
func BenchmarkFig4aSmallFlows(b *testing.B) {
	benchFig4(b, experiments.BinSmall, 0.6)
}

// BenchmarkFig4bLargeFlows regenerates Figure 4b's series (mean FCT of
// pFabric flows of 1 MB and above) at load 0.6.
func BenchmarkFig4bLargeFlows(b *testing.B) {
	benchFig4(b, experiments.BinLarge, 0.6)
}

// benchSweep measures a two-load Fig-4 sweep (12 runs) at a fixed worker
// count; comparing Serial vs Parallel below gives the sweep runner's
// wall-clock speedup on this machine.
func benchSweep(b *testing.B, workers int) {
	cfg := benchCfg()
	cfg.Horizon = 20 * sim.Millisecond
	loads := []float64{0.3, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepParallel(cfg, experiments.Schemes, loads,
			experiments.RunnerConfig{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SweepSerial is the old single-core sweep (workers=1).
func BenchmarkFig4SweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkFig4SweepParallel is the pooled sweep at GOMAXPROCS workers.
func BenchmarkFig4SweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkFig3Transformations measures the pre-processor on the paper's
// Figure-3 joint policy: the per-packet cost of the rank rewrite that runs
// at line rate.
func BenchmarkFig3Transformations(b *testing.B) {
	hv, err := New([]*Tenant{
		{ID: 1, Name: "T1", Bounds: Bounds{Lo: 7, Hi: 9}, Levels: 3},
		{ID: 2, Name: "T2", Bounds: Bounds{Lo: 1, Hi: 3}, Levels: 2},
		{ID: 3, Name: "T3", Bounds: Bounds{Lo: 3, Hi: 5}, Levels: 2},
	}, "T1 >> T2 + T3", Options{Synth: SynthOptions{Base: 1}})
	if err != nil {
		b.Fatal(err)
	}
	p := &Packet{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tenant = pkt.TenantID(1 + i%3)
		p.Rank = int64(1 + i%9)
		hv.Process(p)
	}
}

// BenchmarkAblationQuantization (A1) compares coarse vs fine quantization
// under the sharing policy; metrics are mean small-flow FCTs in ms.
func BenchmarkAblationQuantization(b *testing.B) {
	cfg := benchCfg()
	cfg.Horizon = 30 * sim.Millisecond
	levels := []int64{2, 16, 1 << 10, 1 << 20}
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationQuantization(cfg, levels, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, r := range results {
				if r.Small.Count > 0 {
					b.ReportMetric(ms(r.Small.Mean), fmt.Sprintf("msFCT/L%d", levels[j]))
				}
			}
		}
	}
}

// BenchmarkAblationQueues (A2) sweeps the strict-priority queue count of
// the deployed (non-PIFO) backend.
func BenchmarkAblationQueues(b *testing.B) {
	cfg := benchCfg()
	cfg.Horizon = 30 * sim.Millisecond
	queues := []int{2, 4, 8, 16, 32}
	for i := 0; i < b.N; i++ {
		results, err := experiments.AblationQueues(cfg, queues, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, r := range results {
				if r.Small.Count > 0 {
					b.ReportMetric(ms(r.Small.Mean), fmt.Sprintf("msFCT/q%d", queues[j]))
				}
			}
		}
	}
}

// BenchmarkAblationRuntime (A3) compares static synthesis against the
// runtime-adaptive controller under mis-declared rank bounds.
func BenchmarkAblationRuntime(b *testing.B) {
	cfg := benchCfg()
	cfg.Horizon = 40 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRuntime(cfg, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if res.Static.Count > 0 {
				b.ReportMetric(ms(res.Static.Mean), "msFCT/static")
			}
			if res.Adaptive.Count > 0 {
				b.ReportMetric(ms(res.Adaptive.Mean), "msFCT/adaptive")
			}
		}
	}
}

// BenchmarkTrafficShift runs the Figure-2 three-tenant scenario.
func BenchmarkTrafficShift(b *testing.B) {
	cfg := benchCfg()
	cfg.Horizon = 30 * sim.Millisecond
	for i := 0; i < b.N; i++ {
		res, err := experiments.TrafficShift(cfg, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && res.InteractiveFCT.Count > 0 {
			b.ReportMetric(ms(res.InteractiveFCT.Mean), "msFCT/interactive")
			b.ReportMetric(res.DeadlineMet, "deadlineMet")
		}
	}
}

// BenchmarkSynthesis measures joint-policy compilation (control-plane
// cost).
func BenchmarkSynthesis(b *testing.B) {
	pf, _ := RankerByName("pfabric")
	edf, _ := RankerByName("edf")
	fq, _ := RankerByName("fq")
	tenants := []*Tenant{
		{ID: 1, Name: "T1", Algorithm: pf},
		{ID: 2, Name: "T2", Algorithm: edf},
		{ID: 3, Name: "T3", Algorithm: fq},
	}
	spec, err := ParsePolicy("T1 >> T2 + T3")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize(tenants, spec, SynthOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
