package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

func newTestServer(t *testing.T, opts core.ControllerOptions) (*Client, *core.Controller, *httptest.Server) {
	t.Helper()
	tenants := []*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}
	ctl, _, err := core.NewController(tenants, policy.MustParse("web >> deadline"), opts)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	srv := NewServer(ctl, func() sim.Time { now += sim.Millisecond; return now })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), ctl, ts
}

func TestHealth(t *testing.T) {
	c, _, _ := newTestServer(t, core.ControllerOptions{})
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	p, err := c.Policy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != "web >> deadline" {
		t.Fatalf("spec = %q", p.Spec)
	}
	if p.Version != ctl.Version() {
		t.Fatalf("version = %d, want %d", p.Version, ctl.Version())
	}
	if len(p.Transforms) != 2 {
		t.Fatalf("transforms = %d", len(p.Transforms))
	}
	if p.Transforms[0].Tenant != "web" || p.Transforms[1].Tenant != "deadline" {
		t.Fatalf("transform order: %+v", p.Transforms)
	}
	if p.OutputHi <= p.OutputLo {
		t.Fatalf("output bounds: [%d,%d]", p.OutputLo, p.OutputHi)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	spec, err := c.Spec(ctx)
	if err != nil || spec != "web >> deadline" {
		t.Fatalf("Spec = %q, %v", spec, err)
	}
	if err := c.SetSpec(ctx, "web + deadline"); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Spec().String(); got != "web + deadline" {
		t.Fatalf("controller spec = %q", got)
	}
	if ctl.Version() != 2 {
		t.Fatalf("version = %d, want 2 after update", ctl.Version())
	}
	// Bad spec: rejected, state unchanged.
	if err := c.SetSpec(ctx, ">>"); err == nil {
		t.Fatal("bad spec accepted")
	}
	// Spec missing a tenant: rejected with conflict.
	err = c.SetSpec(ctx, "web")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("err = %v, want 409", err)
	}
	if got := ctl.Spec().String(); got != "web + deadline" {
		t.Fatalf("failed update mutated spec: %q", got)
	}
}

// joinOne and leaveOne are the single-membership-change batches the
// lifecycle tests speak in.
func joinOne(ti TenantInfo, spec string) BatchRequest {
	return BatchRequest{Ops: []BatchOpInfo{{Op: "join", Tenant: &ti}}, Spec: spec}
}

func leaveOne(name, spec string) BatchRequest {
	return BatchRequest{Ops: []BatchOpInfo{{Op: "leave", Name: name}}, Spec: spec}
}

func TestTenantLifecycle(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()

	// Join a third tenant.
	_, err := c.Batch(ctx, joinOne(TenantInfo{
		Name: "batch", ID: 3, Algorithm: "fq",
	}, "web >> deadline + batch"))
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := c.Tenants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 3 {
		t.Fatalf("tenants = %d", len(tenants))
	}
	names := map[string]bool{}
	for _, ti := range tenants {
		names[ti.Name] = true
	}
	if !names["batch"] {
		t.Fatalf("batch missing: %+v", tenants)
	}

	// Duplicate join: conflict.
	_, err = c.Batch(ctx, joinOne(TenantInfo{Name: "batch", ID: 9, Algorithm: "fq"}, "web >> deadline + batch"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict ||
		len(ae.Items) != 1 || ae.Items[0].Error == nil || ae.Items[0].Error.Code != CodeTenantExists {
		t.Fatalf("duplicate join err = %v, want 409 with a %s item", err, CodeTenantExists)
	}

	// Leave.
	if _, err := c.Batch(ctx, leaveOne("batch", "web >> deadline")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ctl.Policy().TransformOf("batch"); ok {
		t.Fatal("batch still deployed after leave")
	}
	// Leaving again: the item is an unknown tenant.
	_, err = c.Batch(ctx, leaveOne("batch", "web >> deadline"))
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict ||
		len(ae.Items) != 1 || ae.Items[0].Error == nil || ae.Items[0].Error.Code != CodeUnknownTenant {
		t.Fatalf("double leave err = %v, want 409 with an %s item", err, CodeUnknownTenant)
	}
	// Leave without a spec: the spec in force still names the tenant.
	_, err = c.Batch(ctx, leaveOne("web", ""))
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict || ae.Code != CodeSynthFailed {
		t.Fatalf("missing spec: err = %v, want 409 %s", err, CodeSynthFailed)
	}
	// The one-tenant route that used to do this is gone.
	resp, err := http.DefaultClient.Do(mustReq(t, http.MethodDelete, srvURL(t, c)+"/v1/tenants/web"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/tenants/web: status %d, want 405", resp.StatusCode)
	}
}

func TestJoinValidation(t *testing.T) {
	c, _, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	// Unknown algorithm.
	if _, err := c.Batch(ctx, joinOne(TenantInfo{Name: "x", ID: 9, Algorithm: "nope"}, "web >> deadline >> x")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Bad spec.
	if _, err := c.Batch(ctx, joinOne(TenantInfo{Name: "x", ID: 9, Algorithm: "fq"}, "+++")); err == nil {
		t.Fatal("bad spec accepted")
	}
	// Bounds-only tenant is fine.
	if _, err := c.Batch(ctx, joinOne(TenantInfo{
		Name: "y", ID: 10, Bounds: &BoundsInfo{Lo: 0, Hi: 99},
	}, "web >> deadline >> y")); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	for i := int64(0); i < 100; i++ {
		ctl.Observe(1, i*1000)
	}
	m, err := c.Monitor(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 100 || m.WindowCount != 100 {
		t.Fatalf("monitor counts: %+v", m)
	}
	if m.ObservedHi != 99000 {
		t.Fatalf("observed hi = %d", m.ObservedHi)
	}
	if _, err := c.Monitor(ctx, "ghost"); err == nil {
		t.Fatal("unknown tenant monitor should 404")
	}
}

func TestCheckEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{
		MinObservations: 10,
		WindowSize:      64,
	})
	ctx := context.Background()
	// No drift yet.
	res, err := c.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redeployed {
		t.Fatal("no observations: must not redeploy")
	}
	// Force drift on the web tenant (declared [0,2^30]; emit far above).
	for i := 0; i < 64; i++ {
		ctl.Observe(1, 1<<40)
	}
	res, err = c.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Redeployed {
		t.Fatal("drift should redeploy")
	}
	if res.Version != ctl.Version() {
		t.Fatalf("version mismatch: %d vs %d", res.Version, ctl.Version())
	}
}

func TestCompileEndpoint(t *testing.T) {
	c, _, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	resp, err := c.Compile(ctx, CompileRequest{Name: "sw", Queues: 8, RankRewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible {
		t.Fatal("2 tiers on 8 queues should be feasible")
	}
	if len(resp.Requirements) == 0 {
		t.Fatal("no requirements reported")
	}
	// Infeasible target: 1 queue for 2 tiers.
	resp, err = c.Compile(ctx, CompileRequest{Name: "tiny", Queues: 1, RankRewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Feasible || resp.PartialSpec == "" {
		t.Fatalf("expected partial proposal: %+v", resp)
	}
	// Broken target: error.
	if _, err := c.Compile(ctx, CompileRequest{Name: "none"}); err == nil {
		t.Fatal("target without resources should fail")
	}
}

func TestBadJSONRejected(t *testing.T) {
	_, ctl, ts := newTestServerRaw(t)
	_ = ctl
	resp, err := http.Post(ts.URL+"/v1/tenants:batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error.Message == "" {
		t.Fatalf("error body missing: %v %+v", err, er)
	}
	if er.Error.Code != CodeParseError {
		t.Fatalf("code = %q, want %q", er.Error.Code, CodeParseError)
	}
	// Unknown fields are rejected too.
	resp2, err := http.Post(ts.URL+"/v1/check", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("check status %d", resp2.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	_, _, ts := newTestServerRaw(t)
	// Wrong method on /v1/policy.
	resp, err := http.Post(ts.URL+"/v1/policy", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/policy status %d, want 405", resp.StatusCode)
	}
	// Unknown path.
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
}

func newTestServerRaw(t *testing.T) (*Client, *core.Controller, *httptest.Server) {
	return newTestServer(t, core.ControllerOptions{})
}

func mustReq(t *testing.T, method, url string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func srvURL(t *testing.T, c *Client) string {
	t.Helper()
	return c.base
}

func TestFabricEndpoint(t *testing.T) {
	c, _, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	resp, err := c.Fabric(ctx, []DeviceInfo{
		{Name: "leaf0", Role: "leaf", Target: CompileRequest{Name: "pifo", Sorted: true, RankRewrite: true}},
		{Name: "spine0", Role: "spine", Target: CompileRequest{Name: "8q", Queues: 8, RankRewrite: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Feasible {
		t.Fatal("fabric should be feasible")
	}
	if resp.Guarantees["intra-tenant order"] != "approximate" {
		t.Fatalf("guarantees: %+v", resp.Guarantees)
	}
	if resp.Bottleneck["intra-tenant order"] != "spine0" {
		t.Fatalf("bottleneck: %+v", resp.Bottleneck)
	}
	if len(resp.Devices) != 2 || resp.Devices[0].Backend != "pifo" {
		t.Fatalf("devices: %+v", resp.Devices)
	}
	// Validation errors propagate.
	if _, err := c.Fabric(ctx, nil); err == nil {
		t.Fatal("empty fabric accepted")
	}
	if _, err := c.Fabric(ctx, []DeviceInfo{{Name: "x"}}); err == nil {
		t.Fatal("resourceless device accepted")
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	c, _, ts := newTestServerRaw(t)
	_ = c
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ar AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	// web >> deadline: web preempts 100% of deadline and is isolated.
	if len(ar.Pairs) != 1 || ar.Pairs[0].From != "web" || ar.Pairs[0].Fraction != 1.0 {
		t.Fatalf("pairs: %+v", ar.Pairs)
	}
	if len(ar.Isolated) != 1 || ar.Isolated[0] != "web" {
		t.Fatalf("isolated: %v", ar.Isolated)
	}
}

// TestConcurrentRequests hammers the server from many goroutines; the
// internal mutex must serialize controller access (validated under
// go test -race).
func TestConcurrentRequests(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{MinObservations: 10})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		ctl.Observe(1, int64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (g + i) % 4 {
				case 0:
					if _, err := c.Policy(ctx); err != nil {
						errs <- err
					}
				case 1:
					if _, err := c.Monitor(ctx, "web"); err != nil {
						errs <- err
					}
				case 2:
					if _, err := c.Check(ctx); err != nil {
						errs <- err
					}
				case 3:
					if _, err := c.Tenants(ctx); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
