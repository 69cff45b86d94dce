package api

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"qvisor/internal/core"
)

func TestBatchEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	before := ctl.Version()

	resp, err := c.Batch(ctx, BatchRequest{
		Ops: []BatchOpInfo{
			{Op: "join", Tenant: &TenantInfo{Name: "batch", ID: 3, Algorithm: "fq"}},
			{Op: "update", Tenant: &TenantInfo{Name: "web", ID: 1, Algorithm: "pfabric",
				Bounds: &BoundsInfo{Lo: 0, Hi: 5000}}},
			{Op: "leave", Name: "deadline"},
		},
		Spec: "web >> batch",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != nil {
			t.Fatalf("item %d (%s %s) failed: %+v", i, r.Op, r.Name, r.Error)
		}
	}
	if resp.Spec != "web >> batch" {
		t.Fatalf("spec = %q", resp.Spec)
	}
	// The whole batch compiled into exactly one new version and epoch.
	if resp.Version != before+1 || resp.Version != ctl.Version() {
		t.Fatalf("version = %d, want %d", resp.Version, before+1)
	}
	if resp.Epoch != resp.Version {
		t.Fatalf("epoch = %d, want %d (aligned numbering)", resp.Epoch, resp.Version)
	}
	if cur := ctl.Epochs().Current(); cur == nil || cur.Gen != resp.Epoch {
		t.Fatalf("store current = %+v, want gen %d", cur, resp.Epoch)
	}
	if _, ok := ctl.Tenant("deadline"); ok {
		t.Fatal("left tenant still registered")
	}
	if tn, ok := ctl.Tenant("web"); !ok || tn.Bounds.Hi != 5000 {
		t.Fatalf("update not applied: %+v", tn)
	}
}

func TestBatchAtomicity(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	before := ctl.Version()

	// One bad op poisons the whole transaction; the envelope reports every
	// op's outcome and nothing is applied.
	_, err := c.Batch(ctx, BatchRequest{
		Ops: []BatchOpInfo{
			{Op: "join", Tenant: &TenantInfo{Name: "ok", ID: 3, Algorithm: "fq"}},
			{Op: "join", Tenant: &TenantInfo{Name: "web", ID: 4, Algorithm: "fq"}},
			{Op: "leave", Name: "nope"},
		},
		Spec: "web >> deadline >> ok",
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeBatchFailed {
		t.Fatalf("err = %v, want %s", err, CodeBatchFailed)
	}
	if len(ae.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(ae.Items))
	}
	if ae.Items[0].Error != nil {
		t.Errorf("valid join reported: %+v", ae.Items[0].Error)
	}
	if ae.Items[1].Error == nil || ae.Items[1].Error.Code != CodeTenantExists {
		t.Errorf("duplicate join: %+v", ae.Items[1].Error)
	}
	if ae.Items[2].Error == nil || ae.Items[2].Error.Code != CodeUnknownTenant {
		t.Errorf("unknown leave: %+v", ae.Items[2].Error)
	}
	if ctl.Version() != before {
		t.Fatalf("failed batch bumped version %d -> %d", before, ctl.Version())
	}
	if _, ok := ctl.Tenant("ok"); ok {
		t.Fatal("failed batch registered a tenant")
	}
}

func TestBatchValidation(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	var ae *APIError

	// No ops at all: plain bad request, not a batch envelope.
	if _, err := c.Batch(ctx, BatchRequest{}); !errors.As(err, &ae) || ae.Code != CodeBadRequest {
		t.Fatalf("empty batch: %v", err)
	}
	// Malformed ops fail item-by-item before touching the controller.
	_, err := c.Batch(ctx, BatchRequest{Ops: []BatchOpInfo{
		{Op: "promote", Name: "web"},
		{Op: "join"},
		{Op: "leave"},
	}})
	if !errors.As(err, &ae) || ae.Code != CodeBatchFailed {
		t.Fatalf("malformed ops: %v", err)
	}
	for i, it := range ae.Items {
		if it.Error == nil || it.Error.Code != CodeBadRequest {
			t.Errorf("item %d: %+v", i, it.Error)
		}
	}
	// A batch whose spec doesn't cover the new tenant set stages fine but
	// the joint compile rejects it as one unit.
	before := ctl.Version()
	_, err = c.Batch(ctx, BatchRequest{Ops: []BatchOpInfo{
		{Op: "join", Tenant: &TenantInfo{Name: "ghost", ID: 9, Algorithm: "fq"}},
	}})
	if !errors.As(err, &ae) || ae.Code != CodeSynthFailed {
		t.Fatalf("uncovered join: %v", err)
	}
	if ctl.Version() != before {
		t.Fatal("rejected batch bumped the version")
	}
	// Stale If-Match short-circuits with the live version in the envelope.
	_, err = c.BatchIfMatch(ctx, BatchRequest{Ops: []BatchOpInfo{
		{Op: "leave", Name: "deadline"},
	}, Spec: "web"}, before+100)
	if !errors.As(err, &ae) || ae.Code != CodeVersionConflict {
		t.Fatalf("stale batch: %v", err)
	}
	if ae.CurrentVersion != ctl.Version() {
		t.Fatalf("current_version = %d, want %d", ae.CurrentVersion, ctl.Version())
	}
}

func TestPatchSpecEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()
	before := ctl.Version()

	resp, err := c.PatchSpec(ctx, []SpecOpInfo{
		{Op: "set_weight", Tenant: "web", Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Spec != "web*2 >> deadline" {
		t.Fatalf("spec = %q", resp.Spec)
	}
	if resp.Version != before+1 || resp.Epoch != resp.Version {
		t.Fatalf("version/epoch = %d/%d, want %d/%d",
			resp.Version, resp.Epoch, before+1, before+1)
	}

	var ae *APIError
	// Empty patches and op-level failures are 400s that leave the spec
	// untouched.
	if _, err := c.PatchSpec(ctx, nil); !errors.As(err, &ae) || ae.Code != CodeBadRequest {
		t.Fatalf("empty patch: %v", err)
	}
	_, err = c.PatchSpec(ctx, []SpecOpInfo{{Op: "remove", Tenant: "nope"}})
	if !errors.As(err, &ae) || ae.Code != CodeBadRequest {
		t.Fatalf("bad op: %v", err)
	}
	// An op that edits the spec out from under a registered tenant fails
	// at synthesis, not at the spec layer.
	_, err = c.PatchSpec(ctx, []SpecOpInfo{{Op: "remove", Tenant: "deadline"}})
	if !errors.As(err, &ae) || ae.Code != CodeSynthFailed {
		t.Fatalf("uncovering remove: %v", err)
	}
	if got, _ := c.Spec(ctx); got != "web*2 >> deadline" {
		t.Fatalf("failed patches changed the spec: %q", got)
	}
	// Conditional patch: a stale precondition reports the live version.
	_, err = c.PatchSpecIfMatch(ctx, []SpecOpInfo{
		{Op: "set_weight", Tenant: "web", Weight: 3},
	}, before)
	if !errors.As(err, &ae) || ae.Code != CodeVersionConflict {
		t.Fatalf("stale patch: %v", err)
	}
	if ae.CurrentVersion != ctl.Version() {
		t.Fatalf("current_version = %d, want %d", ae.CurrentVersion, ctl.Version())
	}
}

func TestTenantETagFlow(t *testing.T) {
	c, ctl, ts := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()

	ti, etag, err := c.Tenant(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if ti.Name != "web" || ti.ID != 1 || ti.Algorithm != "pfabric" {
		t.Fatalf("tenant = %+v", ti)
	}
	if !strings.HasPrefix(etag, "t-") {
		t.Fatalf("etag = %q, want t-<hex>", etag)
	}

	// Conditional GET: a matching If-None-Match saves the body.
	req := mustReq(t, http.MethodGet, ts.URL+"/v1/tenants/web")
	req.Header.Set("If-None-Match", `"`+etag+`"`)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp.StatusCode)
	}

	// A stale content ETag refuses the write and names the live tag.
	var ae *APIError
	_, _, err = c.PutTenant(ctx, TenantInfo{Name: "web", Algorithm: "pfabric",
		Bounds: &BoundsInfo{Lo: 0, Hi: 9000}}, "t-0000000000000000")
	if !errors.As(err, &ae) || ae.Code != CodeVersionConflict {
		t.Fatalf("stale put: %v", err)
	}
	if !strings.Contains(ae.Message, etag) {
		t.Fatalf("conflict message %q does not name live etag %s", ae.Message, etag)
	}

	// A matching tag updates in place; the omitted ID keeps the registered
	// label and the recompile bumps the spec version.
	before := ctl.Version()
	out, newTag, err := c.PutTenant(ctx, TenantInfo{Name: "web", Algorithm: "pfabric",
		Bounds: &BoundsInfo{Lo: 0, Hi: 9000}}, etag)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 1 {
		t.Fatalf("omitted id re-labeled the tenant: %d", out.ID)
	}
	if newTag == etag || !strings.HasPrefix(newTag, "t-") {
		t.Fatalf("new etag = %q (old %q)", newTag, etag)
	}
	if ctl.Version() != before+1 {
		t.Fatalf("version = %d, want %d", ctl.Version(), before+1)
	}
	if tn, _ := ctl.Tenant("web"); tn.Bounds.Hi != 9000 {
		t.Fatalf("bounds not applied: %+v", tn.Bounds)
	}

	if _, _, err := c.Tenant(ctx, "nope"); !errors.As(err, &ae) || ae.Code != CodeUnknownTenant {
		t.Fatalf("unknown tenant: %v", err)
	}
}

func TestEpochsEndpoint(t *testing.T) {
	c, ctl, _ := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()

	g, err := c.Epochs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if g.Current == nil || g.Current.Gen != ctl.Version() {
		t.Fatalf("current = %+v, want gen %d", g.Current, ctl.Version())
	}
	if g.Published != 1 || len(g.Draining) != 0 {
		t.Fatalf("generations = %+v", g)
	}
	// With no data plane attached nothing pins the old epoch, so each
	// mutation supersedes cleanly: publish count and generation follow the
	// spec version.
	if err := c.SetSpec(ctx, "web + deadline"); err != nil {
		t.Fatal(err)
	}
	if g, err = c.Epochs(ctx); err != nil {
		t.Fatal(err)
	}
	if g.Published != 2 || g.Current.Gen != ctl.Version() {
		t.Fatalf("after update: %+v (version %d)", g, ctl.Version())
	}
}

func TestPutSpecEpochAndConflictBody(t *testing.T) {
	c, ctl, ts := newTestServer(t, core.ControllerOptions{})
	ctx := context.Background()

	// Success body now carries the deployed epoch alongside the version.
	sv, err := c.SetSpecIfMatch(ctx, "web + deadline", ctl.Version())
	if err != nil {
		t.Fatal(err)
	}
	if sv.Version != ctl.Version() || sv.Epoch != sv.Version {
		t.Fatalf("SetSpecIfMatch = %+v (version %d)", sv, ctl.Version())
	}

	// The conflict envelope reports the version to retry against, both in
	// the body and the ETag header.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/spec",
		strings.NewReader(`{"spec":"web >> deadline"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-Match", `"999"`)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	var er ErrorResponse
	if err := jsonDecode(resp, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != CodeVersionConflict {
		t.Fatalf("code = %q", er.Error.Code)
	}
	if er.Error.CurrentVersion != ctl.Version() {
		t.Fatalf("current_version = %d, want %d", er.Error.CurrentVersion, ctl.Version())
	}
	if got := strings.Trim(resp.Header.Get("ETag"), `"`); got == "" || got == "999" {
		t.Fatalf("conflict ETag = %q", got)
	}
}
