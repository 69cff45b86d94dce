package api

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestErrorEnvelope sweeps every /v1 route's failure modes and asserts the
// uniform error envelope: JSON content type, a machine-readable code, and a
// non-empty message.
func TestErrorEnvelope(t *testing.T) {
	c, _, ts := newTestServerRaw(t)
	_ = c
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		ifMatch    string
		wantStatus int
		wantCode   string
	}{
		{"unknown route", http.MethodGet, "/v1/nope", "", "", 404, CodeNotFound},
		{"wrong method policy", http.MethodPost, "/v1/policy", "", "", 405, CodeMethodNotAllowed},
		{"wrong method spec", http.MethodDelete, "/v1/spec", "", "", 405, CodeMethodNotAllowed},
		{"wrong method tenants", http.MethodPut, "/v1/tenants", "", "", 405, CodeMethodNotAllowed},
		{"wrong method check", http.MethodGet, "/v1/check", "", "", 405, CodeMethodNotAllowed},
		{"wrong method metrics", http.MethodPost, "/v1/metrics", "", "", 405, CodeMethodNotAllowed},
		{"malformed join", http.MethodPost, "/v1/tenants:batch", "{not json", "", 400, CodeParseError},
		{"malformed spec", http.MethodPut, "/v1/spec", "{not json", "", 400, CodeParseError},
		{"malformed compile", http.MethodPost, "/v1/compile", "{not json", "", 400, CodeParseError},
		{"malformed fabric", http.MethodPost, "/v1/fabric", "{not json", "", 400, CodeParseError},
		{"unknown field", http.MethodPut, "/v1/spec", `{"spec":"web >> deadline","bogus":1}`, "", 400, CodeParseError},
		{"bad spec text", http.MethodPut, "/v1/spec", `{"spec":">>"}`, "", 400, CodeParseError},
		{"spec missing tenant", http.MethodPut, "/v1/spec", `{"spec":"web"}`, "", 409, CodeSynthFailed},
		{"unknown tenant monitor", http.MethodGet, "/v1/tenants/ghost/monitor", "", "", 404, CodeUnknownTenant},
		// Membership changes travel as batches: a refused op is an item of a
		// 409 batch_failed envelope, a batch the compile rejects is a 409
		// synth_failed.
		{"unknown tenant leave", http.MethodPost, "/v1/tenants:batch",
			`{"ops":[{"op":"leave","name":"ghost"}],"spec":"web >> deadline"}`, "", 409, CodeBatchFailed},
		{"leave missing spec", http.MethodPost, "/v1/tenants:batch",
			`{"ops":[{"op":"leave","name":"web"}]}`, "", 409, CodeSynthFailed},
		{"duplicate join", http.MethodPost, "/v1/tenants:batch",
			`{"ops":[{"op":"join","tenant":{"name":"web","id":7,"algorithm":"fq"}}],"spec":"web >> deadline"}`, "", 409, CodeBatchFailed},
		{"unknown ranker", http.MethodPost, "/v1/tenants:batch",
			`{"ops":[{"op":"join","tenant":{"name":"z","id":9,"algorithm":"nope"}}],"spec":"web >> deadline >> z"}`, "", 409, CodeBatchFailed},
		// The one-tenant shims are gone; the mux answers for the paths' other methods.
		{"removed join route", http.MethodPost, "/v1/tenants",
			`{"tenant":{"name":"z","id":9,"algorithm":"fq"},"spec":"web >> deadline >> z"}`, "", 405, CodeMethodNotAllowed},
		{"removed leave route", http.MethodDelete,
			"/v1/tenants/web?spec=" + url.QueryEscape("deadline"), "", "", 405, CodeMethodNotAllowed},
		{"invalid compile target", http.MethodPost, "/v1/compile", `{"name":"none"}`, "", 400, CodeInvalidTarget},
		{"malformed if-match", http.MethodPut, "/v1/spec", `{"spec":"web + deadline"}`, "abc", 400, CodeBadRequest},
		{"stale if-match", http.MethodPut, "/v1/spec", `{"spec":"web + deadline"}`, "99", 409, CodeVersionConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			if tc.ifMatch != "" {
				req.Header.Set("If-Match", tc.ifMatch)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var er ErrorResponse
			if err := jsonDecode(resp, &er); err != nil {
				t.Fatalf("decode envelope: %v", err)
			}
			if er.Error.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q (message %q)", er.Error.Code, tc.wantCode, er.Error.Message)
			}
			if er.Error.Message == "" {
				t.Fatal("envelope message empty")
			}
		})
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestIfMatchFlow exercises the optimistic-concurrency loop end to end:
// read the version, mutate conditionally, observe a conflict when the
// precondition went stale.
func TestIfMatchFlow(t *testing.T) {
	c, ctl, ts := newTestServerRaw(t)
	ctx := context.Background()

	sv, err := c.SpecVersion(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Spec != "web >> deadline" || sv.Version != 1 {
		t.Fatalf("SpecVersion = %+v", sv)
	}

	// The version travels as an ETag too.
	resp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if et := resp.Header.Get("ETag"); et != `"1"` {
		t.Fatalf("ETag = %q, want %q", et, `"1"`)
	}

	// Conditional update at the current version succeeds and bumps it.
	sv2, err := c.SetSpecIfMatch(ctx, "web + deadline", sv.Version)
	if err != nil {
		t.Fatal(err)
	}
	if sv2.Version != sv.Version+1 || sv2.Spec != "web + deadline" {
		t.Fatalf("after conditional update: %+v", sv2)
	}

	// Replaying the old version is a conflict and must not mutate.
	_, err = c.SetSpecIfMatch(ctx, "web >> deadline", sv.Version)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Code != CodeVersionConflict {
		t.Fatalf("stale update err = %v, want 409 %s", err, CodeVersionConflict)
	}
	if got := ctl.Spec().String(); got != "web + deadline" {
		t.Fatalf("stale update mutated spec: %q", got)
	}

	// "*" matches any version.
	req2, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/spec", strings.NewReader(`{"spec":"web >> deadline"}`))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("If-Match", "*")
	req2.Header.Set("Content-Type", "application/json")
	wresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf(`If-Match "*" status = %d`, wresp.StatusCode)
	}

	// Join/Leave honor the precondition too.
	cur := ctl.Version()
	if _, err := c.BatchIfMatch(ctx, joinOne(TenantInfo{Name: "batch", ID: 3, Algorithm: "fq"},
		"web >> deadline + batch"), cur); err != nil {
		t.Fatal(err)
	}
	_, err = c.BatchIfMatch(ctx, leaveOne("batch", "web >> deadline"), cur)
	if !errors.As(err, &ae) || ae.Code != CodeVersionConflict {
		t.Fatalf("stale leave err = %v, want %s", err, CodeVersionConflict)
	}
	if _, err := c.BatchIfMatch(ctx, leaveOne("batch", "web >> deadline"), ctl.Version()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsDisabled: a controller built without a registry has no metrics
// endpoint to serve.
func TestMetricsDisabled(t *testing.T) {
	c, _, _ := newTestServerRaw(t)
	_, err := c.Metrics(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != CodeNotFound {
		t.Fatalf("metrics without registry: err = %v, want 404 %s", err, CodeNotFound)
	}
}

// TestMetricsGolden drives deterministic traffic through an instrumented
// controller and compares GET /v1/metrics byte-for-byte against the checked
// in exposition (regenerate with `go test -run TestMetricsGolden -update`).
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	tenants := []*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}
	ctl, pp, err := core.NewController(tenants, policy.MustParse("web >> deadline"),
		core.ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic traffic: ten web packets (one clamped below its
	// declared bounds), five deadline packets, three unknown-tenant packets.
	for i := 0; i < 10; i++ {
		r := int64(i * 1000)
		if i == 0 {
			r = -5
		}
		pp.Process(&pkt.Packet{Tenant: 1, Rank: r})
	}
	for i := 0; i < 5; i++ {
		pp.Process(&pkt.Packet{Tenant: 2, Rank: int64(i)})
	}
	for i := 0; i < 3; i++ {
		pp.Process(&pkt.Packet{Tenant: 9, Rank: 1})
	}
	pp.Flush()

	var now sim.Time
	srv := NewServer(ctl, func() sim.Time { now += sim.Millisecond; return now })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	got, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s (re-run with -update if intended):\n--- got ---\n%s", golden, got)
	}

	// The content type is the Prometheus text exposition.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
}

// TestMetricsLateRegistrationGolden pins the exposition's ordering
// contract for metrics registered AFTER the first scrape: families that
// appear late (here the shard coordinator's qvisor_sim_* telemetry,
// which only exists once a sharded run flushes) must slot into the
// sorted family list with their HELP/TYPE lines, and repeated scrapes
// of the unchanged registry must be byte-identical. Regenerate with
// `go test -run TestMetricsLateRegistrationGolden -update`.
func TestMetricsLateRegistrationGolden(t *testing.T) {
	reg := obs.NewRegistry()
	tenants := []*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}
	ctl, pp, err := core.NewController(tenants, policy.MustParse("web >> deadline"),
		core.ControllerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pp.Process(&pkt.Packet{Tenant: 1, Rank: int64(i * 100)})
	}
	pp.Flush()

	var now sim.Time
	srv := NewServer(ctl, func() sim.Time { now += sim.Millisecond; return now })
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	early, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(early, "qvisor_sim_") {
		t.Fatal("sim telemetry present before any flush — test premise broken")
	}

	// Late registration: a sharded run's coordinator stats flush into the
	// live registry mid-flight (satellite: sim.CoordStats -> obs).
	st := sim.CoordStats{Windows: 7, Messages: 42, MaxChanLen: 3,
		BarrierWait: []time.Duration{time.Microsecond, 2 * time.Microsecond}}
	st.Export(reg, sim.CoordStats{})
	// Second flush exports deltas only: counters must not double.
	st.Export(reg, st)

	got, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != again {
		t.Fatal("back-to-back scrapes of an unchanged registry differ")
	}
	// Families must read sorted even though qvisor_sim_* registered last.
	var fams []string
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("families not sorted after late registration: %v", fams)
	}
	for _, want := range []string{
		"qvisor_sim_windows_total 7",
		"qvisor_sim_messages_total 42",
		"qvisor_sim_chan_highwater 3",
		`qvisor_sim_barrier_wait_ns_total{shard="0"} 1000`,
		`qvisor_sim_barrier_wait_ns_total{shard="1"} 2000`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	golden := filepath.Join("testdata", "metrics_late.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("late-registration exposition drifted from %s (re-run with -update if intended):\n--- got ---\n%s", golden, got)
	}
}

// TestMetricsFamilies asserts the metric families the ISSUE requires are
// present with their tenant labels after real controller activity.
func TestMetricsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	c, ctl, _ := newTestServer(t, core.ControllerOptions{
		Metrics:         reg,
		MinObservations: 10,
		WindowSize:      64,
	})
	ctx := context.Background()
	// Trigger a drift re-synthesis so controller counters move.
	for i := 0; i < 64; i++ {
		ctl.Observe(1, 1<<40)
	}
	if _, err := c.Check(ctx); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := ctl.Version()
	for _, want := range []string{
		`qvisor_preproc_processed_total{tenant="web"}`,
		`qvisor_preproc_processed_total{tenant="deadline"}`,
		"qvisor_preproc_unknown_total",
		"qvisor_preproc_rank_shift_bucket",
		fmt.Sprintf("qvisor_controller_resyntheses_total %d", v),
		`qvisor_controller_events_total{kind="resynthesized"}`,
		fmt.Sprintf("qvisor_controller_policy_version %d", v),
		"qvisor_controller_tenants 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, text)
		}
	}
}
