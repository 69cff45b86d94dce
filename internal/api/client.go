package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"qvisor/internal/core"
)

// Client is a typed client for QVISOR's configuration API.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:7474"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// APIError is a decoded non-2xx reply. Code is one of the Code* constants
// (empty when the server sent no envelope); branch on it with errors.As:
//
//	var ae *api.APIError
//	if errors.As(err, &ae) && ae.Code == api.CodeVersionConflict { ... }
type APIError struct {
	Status  int
	Code    string
	Message string
	// CurrentVersion carries the live spec version on CodeVersionConflict
	// replies, so the caller can retry without a second GET.
	CurrentVersion uint64
	// Items carries the per-op outcomes on CodeBatchFailed replies.
	Items []BatchItemResult
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("api: HTTP %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("api: HTTP %d (%s): %s", e.Status, e.Code, e.Message)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doIfMatch(ctx, method, path, "", in, out)
}

// doIfMatch is do with an optional If-Match header carrying a spec version
// for optimistic concurrency (empty sends no header).
func (c *Client) doIfMatch(ctx context.Context, method, path, ifMatch string, in, out any) error {
	_, err := c.doHdr(ctx, method, path, ifMatch, in, out)
	return err
}

// doHdr is doIfMatch exposing the response headers, for routes whose
// ETag carries information beyond the spec version (per-tenant content
// tags). Headers are returned even on API errors, nil only on transport
// failures.
func (c *Client) doHdr(ctx context.Context, method, path, ifMatch string, in, out any) (http.Header, error) {
	resp, err := c.roundTrip(ctx, method, path, "If-Match", ifMatch, in)
	if resp == nil {
		return nil, err
	}
	if err != nil {
		return resp.Header, err
	}
	defer resp.Body.Close()
	if out == nil {
		return resp.Header, nil
	}
	return resp.Header, json.NewDecoder(resp.Body).Decode(out)
}

// roundTrip sends one request — in as a JSON body when non-nil, one
// header when its value is non-empty — and returns the response for the
// caller to read and close. A status neither 2xx nor listed in also comes
// back as the *APIError its envelope decodes to, beside the response with
// its body closed; the response is nil only on a transport failure.
func (c *Client) roundTrip(ctx context.Context, method, path, hdr, hdrValue string, in any, also ...int) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hdrValue != "" {
		req.Header.Set(hdr, hdrValue)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if (resp.StatusCode >= 200 && resp.StatusCode <= 299) || slices.Contains(also, resp.StatusCode) {
		return resp, nil
	}
	defer resp.Body.Close()
	ae := &APIError{Status: resp.StatusCode, Message: resp.Status}
	var er ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error.Message != "" {
		ae.Code = er.Error.Code
		ae.Message = er.Error.Message
		ae.CurrentVersion = er.Error.CurrentVersion
		ae.Items = er.Error.Items
	}
	return resp, ae
}

func ifMatchValue(version uint64) string {
	return strconv.FormatUint(version, 10)
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// Policy fetches the deployed joint policy.
func (c *Client) Policy(ctx context.Context) (PolicyResponse, error) {
	var out PolicyResponse
	err := c.do(ctx, http.MethodGet, "/v1/policy", nil, &out)
	return out, err
}

// Spec fetches the operator specification.
func (c *Client) Spec(ctx context.Context) (string, error) {
	out, err := c.SpecVersion(ctx)
	return out.Spec, err
}

// SpecVersion fetches the operator specification together with its version
// for use in If-Match-conditional updates.
func (c *Client) SpecVersion(ctx context.Context) (SpecResponse, error) {
	var out SpecResponse
	err := c.do(ctx, http.MethodGet, "/v1/spec", nil, &out)
	return out, err
}

// SetSpec replaces the operator specification unconditionally.
func (c *Client) SetSpec(ctx context.Context, spec string) error {
	return c.do(ctx, http.MethodPut, "/v1/spec", SpecRequest{Spec: spec}, nil)
}

// SetSpecIfMatch replaces the operator specification only if the deployed
// version still equals version; a concurrent change yields an *APIError
// with CodeVersionConflict.
func (c *Client) SetSpecIfMatch(ctx context.Context, spec string, version uint64) (SpecResponse, error) {
	var out SpecResponse
	err := c.doIfMatch(ctx, http.MethodPut, "/v1/spec", ifMatchValue(version),
		SpecRequest{Spec: spec}, &out)
	return out, err
}

// Tenants lists the registered tenants.
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	var out []TenantInfo
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// Batch applies a bulk tenant mutation (joins, leaves, updates, and an
// optional new spec) as one transaction compiling into a single policy
// epoch. On CodeBatchFailed the returned *APIError's Items report each
// op's outcome and nothing was applied.
func (c *Client) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants:batch", req, &out)
	return out, err
}

// BatchIfMatch is Batch conditional on the spec version (see
// SetSpecIfMatch).
func (c *Client) BatchIfMatch(ctx context.Context, req BatchRequest, version uint64) (BatchResponse, error) {
	var out BatchResponse
	err := c.doIfMatch(ctx, http.MethodPost, "/v1/tenants:batch", ifMatchValue(version), req, &out)
	return out, err
}

// PatchSpec applies targeted ops to the operator specification without
// resending the whole document.
func (c *Client) PatchSpec(ctx context.Context, ops []SpecOpInfo) (SpecResponse, error) {
	var out SpecResponse
	err := c.do(ctx, http.MethodPatch, "/v1/spec", PatchSpecRequest{Ops: ops}, &out)
	return out, err
}

// PatchSpecIfMatch is PatchSpec conditional on the spec version (see
// SetSpecIfMatch).
func (c *Client) PatchSpecIfMatch(ctx context.Context, ops []SpecOpInfo, version uint64) (SpecResponse, error) {
	var out SpecResponse
	err := c.doIfMatch(ctx, http.MethodPatch, "/v1/spec", ifMatchValue(version),
		PatchSpecRequest{Ops: ops}, &out)
	return out, err
}

// Tenant fetches one registration together with its content ETag, for
// use in a conditional PutTenant.
func (c *Client) Tenant(ctx context.Context, name string) (TenantInfo, string, error) {
	var out TenantInfo
	hdr, err := c.doHdr(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(name), "", nil, &out)
	etag := ""
	if hdr != nil {
		etag = strings.Trim(hdr.Get("ETag"), `"`)
	}
	return out, etag, err
}

// PutTenant replaces one tenant's definition (bounds, algorithm,
// levels). A non-empty etag (from Tenant) makes the replacement
// conditional: a concurrent edit yields CodeVersionConflict. The new
// content ETag is returned.
func (c *Client) PutTenant(ctx context.Context, t TenantInfo, etag string) (TenantInfo, string, error) {
	var out TenantInfo
	hdr, err := c.doHdr(ctx, http.MethodPut, "/v1/tenants/"+url.PathEscape(t.Name), etag, t, &out)
	newTag := ""
	if hdr != nil {
		newTag = strings.Trim(hdr.Get("ETag"), `"`)
	}
	return out, newTag, err
}

// Epochs fetches the policy-generation view: current epoch, draining
// epochs with their in-flight packet counts, and the publish total.
func (c *Client) Epochs(ctx context.Context) (core.EpochGenerations, error) {
	var out core.EpochGenerations
	err := c.do(ctx, http.MethodGet, "/v1/epochs", nil, &out)
	return out, err
}

// Monitor fetches a tenant's observed rank distribution.
func (c *Client) Monitor(ctx context.Context, name string) (MonitorResponse, error) {
	var out MonitorResponse
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(name)+"/monitor", nil, &out)
	return out, err
}

// Check runs one control-loop iteration.
func (c *Client) Check(ctx context.Context) (CheckResponse, error) {
	var out CheckResponse
	err := c.do(ctx, http.MethodPost, "/v1/check", nil, &out)
	return out, err
}

// Compile asks for the guarantee analysis against a target device.
func (c *Client) Compile(ctx context.Context, target CompileRequest) (CompileResponse, error) {
	var out CompileResponse
	err := c.do(ctx, http.MethodPost, "/v1/compile", target, &out)
	return out, err
}

// Analyze fetches the worst-case interference analysis of the deployed
// policy.
func (c *Client) Analyze(ctx context.Context) (AnalyzeResponse, error) {
	var out AnalyzeResponse
	err := c.do(ctx, http.MethodGet, "/v1/analyze", nil, &out)
	return out, err
}

// Fabric asks for the network-wide plan over a heterogeneous device set.
func (c *Client) Fabric(ctx context.Context, devices []DeviceInfo) (FabricResponse, error) {
	var out FabricResponse
	err := c.do(ctx, http.MethodPost, "/v1/fabric", FabricRequest{Devices: devices}, &out)
	return out, err
}

// TraceFilter narrows a Client.Trace request. The zero value fetches
// every event; Tenant filters only when >= 0 (use AllTrace, whose Tenant
// is -1, as a starting point when tenant 0 must remain unfiltered).
type TraceFilter struct {
	// Tenant keeps only this tenant's events when >= 0.
	Tenant int
	// Kinds keeps only the listed event kinds (nil = all).
	Kinds []string
	// Limit keeps only the most recent Limit matching events when > 0.
	Limit int
}

// AllTrace matches every recorded event.
var AllTrace = TraceFilter{Tenant: -1}

// Trace fetches a filtered snapshot of the server's flight-recorder
// ring. A server without an attached recorder answers *APIError with
// CodeNotFound.
func (c *Client) Trace(ctx context.Context, f TraceFilter) (TraceResponse, error) {
	q := url.Values{}
	if f.Tenant >= 0 {
		q.Set("tenant", strconv.Itoa(f.Tenant))
	}
	for _, k := range f.Kinds {
		q.Add("kind", k)
	}
	if f.Limit > 0 {
		q.Set("limit", strconv.Itoa(f.Limit))
	}
	path := "/v1/trace"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out TraceResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Metrics fetches the server's metrics in Prometheus text exposition
// format.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/metrics", "", "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
