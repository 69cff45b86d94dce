package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuartilesPercentile(t *testing.T) {
	odd := []float64{9, 1, 5, 3, 7}
	if got := median(odd); got != 5 {
		t.Errorf("median(odd) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0].
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]: two values extrapolate.
	if q1, q3 := quartiles([]float64{3, 5}); !near(q1, 2.5) || !near(q3, 5.5) {
		t.Errorf("quartiles(3,5) = %v, %v, want 2.5, 5.5", q1, q3)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 1: 1, 0.5: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{7, 3}, 99); got != 7 {
		t.Errorf("percentile(3,7; 99) = %v, want 7", got)
	}
	sm := summarize(odd)
	if sm.Median != 5 || sm.Min != 1 || sm.Max != 9 || sm.N != 5 || !near(sm.Q1, 2) || !near(sm.Q3, 8) {
		t.Errorf("summarize(odd) = %+v", sm)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "pass", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "rewrite", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "enqueue", Start: 40, End: 90, Parent: 0},
		{ID: 3, Name: "heap", Start: 50, End: 70, Parent: 2}, // grandchild: charged to enqueue only
		{ID: 4, Name: "pass", Start: 100, End: 130, Parent: -1},
		{ID: 5, Name: "rewrite", Start: 105, End: 125, Parent: 4},
		// A replayed child runs after its parent and may outlast it.
		{ID: 6, Name: "serve", Start: 200, End: 210, Parent: -1},
		{ID: 7, Name: "replay", Start: 210, End: 240, Parent: 6},
	}
	want := map[string]int64{
		"pass":    (100 - 30 - 50) + (30 - 20),
		"rewrite": 30 + 20,
		"enqueue": 50 - 20,
		"heap":    20,
		"serve":   0, // never negative
		"replay":  30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if dur := totals(spans); dur["pass"] != 130 || dur["rewrite"] != 50 || dur["heap"] != 20 {
		t.Errorf("totals = %v", dur)
	}

	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 || nilTracer.end(id) != 0 {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.begin("pass", -1, 3)
	child := tr.begin("rewrite", root, 3)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Pass != 3 ||
		tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("tracer spans = %+v", tr.spans)
	}
	path, err := tr.flush(t.TempDir(), "unit", 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "unit" || tf.Seed != 7 || tf.Spans != 2 || !reflect.DeepEqual(tf.Flushed, tr.spans) {
		t.Errorf("trace file = %+v", tf)
	}
}

func TestCatalogValidation(t *testing.T) {
	if err := validateCatalog(endToEnd, perLayer); err != nil {
		t.Fatalf("the benchmark's own catalog: %v", err)
	}
	ok := metric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	layer := []metric{{Name: "sim.events", Unit: "count", Better: "lower"}}
	many := func(prefix string, n int, bound float64) []metric {
		ms := make([]metric, n)
		for i := range ms {
			ms[i] = metric{Name: fmt.Sprintf("%s%d", prefix, i), Unit: "ns", Better: "lower", Bound: bound}
		}
		return ms
	}
	bad := map[string][2][]metric{
		"space in name":         {{ok, {Name: "a b", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"slash in name":         {{ok, {Name: "a/b", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"leading dot":           {{ok, {Name: ".a", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"empty name":            {{ok, {Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"65-char name":          {{ok, {Name: strings.Repeat("x", 65), Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"duplicate across sets": {{ok}, {{Name: "setup_s", Unit: "s", Better: "lower"}}},
		"bad unit":              {{ok, {Name: "a", Unit: "n s", Better: "lower", Bound: 0.1}}, layer},
		"17-char unit":          {{ok, {Name: "a", Unit: strings.Repeat("u", 17), Better: "lower", Bound: 0.1}}, layer},
		"bad direction":         {{ok, {Name: "a", Unit: "s", Better: "faster", Bound: 0.1}}, layer},
		"bound over a quarter":  {{ok, {Name: "a", Unit: "s", Better: "lower", Bound: 0.3}}, layer},
		"no bound":              {{ok, {Name: "a", Unit: "s", Better: "lower"}}, layer},
		"bound on a layer":      {{ok}, {{Name: "a", Unit: "s", Better: "lower", Bound: 0.1}}},
		"no setup_s":            {{{Name: "a", Unit: "s", Better: "lower", Bound: 0.1}}, layer},
		"setup_s in ms":         {{{Name: "setup_s", Unit: "ms", Better: "lower", Bound: 0.1}}, layer},
		"17 end-to-end":         {append(many("e", 16, 0.1), ok), layer},
		"129 per-layer":         {{ok}, many("l", 129, 0)},
		"no per-layer":          {{ok}, nil},
	}
	for name, c := range bad {
		if err := validateCatalog(c[0], c[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateCatalog(append(many("e", 15, 0.1), ok), many("l", 128, 0)); err != nil {
		t.Errorf("16 end-to-end and 128 per-layer metrics: %v", err)
	}
	if _, err := fill(endToEnd, map[string]float64{"ns_per_opp": 1}); err == nil {
		t.Error("fill accepted a metric outside the catalog")
	}
}

func TestResultRoundTrip(t *testing.T) {
	metrics, err := fill(endToEnd, map[string]float64{"ns_per_op": 1036.4123456789, "setup_s": 1.2299, "peak_rss_mb": 12.5})
	if err != nil {
		t.Fatal(err)
	}
	in := result{Correct: true, Attempted: 18, Failed: 0, Metrics: metrics}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	// Exactly the contract's keys, at both levels.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("result keys: %s", data)
	}
	var ms map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(ms), len(endToEnd))
	}
	for name, m := range ms {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s: keys %v", name, m)
		}
	}
}

// TestManifestMatchesCatalog fails when BENCHMARK.json and the catalog in
// metrics.go drift apart; regenerate it with -write-manifest.
func TestManifestMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifestFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	// Compare encodings: the decoded metrics carry no doc strings.
	have, err := json.Marshal(onDisk)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("BENCHMARK.json differs from the catalog:\n have %s\n want %s", have, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	for _, s := range specs {
		if !nameRE.MatchString(s.name) || len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", s.name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at 1/50 scale: every
// correctness check must pass and every catalog metric must be reported.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(&out, 1, t.TempDir()); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	results := 0
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "{") {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		results++
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("failed_ops_share != 0: %d of %d", r.Failed, r.Attempted)
		}
		if n := len(r.Metrics); n != len(endToEnd) && n != len(perLayer) {
			t.Errorf("a result carries %d metrics, want %d or %d", n, len(endToEnd), len(perLayer))
		}
		for name, v := range r.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s is %v", name, v.Value)
			}
			if len(r.Metrics) == len(endToEnd) && v.Value <= 0 {
				t.Errorf("end-to-end metric %s is %v; it must never be 0", name, v.Value)
			}
		}
	}
	if want := 2 * len(specs); results != want {
		t.Errorf("%d result lines, want %d", results, want)
	}
}
