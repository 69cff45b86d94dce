// Package api implements QVISOR's configuration API — the control-plane
// interface of Figure 1 through which tenants register their scheduling
// policies and the operator manages the composition policy.
//
// The API is plain HTTP+JSON on the standard library:
//
//	GET    /v1/policy               the deployed joint policy
//	GET    /v1/spec                 the operator specification + version + epoch
//	PUT    /v1/spec                 replace the specification (re-synthesize);
//	                                prefer PATCH for targeted edits
//	PATCH  /v1/spec                 apply targeted spec ops (add/remove/
//	                                set_weight/demote) without resending the
//	                                whole document
//	GET    /v1/tenants              registered tenants
//	POST   /v1/tenants:batch        bulk join/leave/update as one transaction
//	                                (one new policy epoch, per-item errors)
//	GET    /v1/tenants/{name}       one tenant registration + content ETag
//	PUT    /v1/tenants/{name}       replace a tenant's definition (conditional
//	                                on its content ETag via If-Match)
//	GET    /v1/tenants/{name}/monitor   observed rank distribution
//	GET    /v1/epochs               policy generations: current + draining
//	POST   /v1/check                run one control-loop iteration
//	POST   /v1/compile              guarantee analysis for a target device
//	POST   /v1/fabric               network-wide plan over heterogeneous devices
//	GET    /v1/analyze              worst-case interference analysis
//	GET    /v1/metrics              Prometheus text exposition (internal/obs)
//	GET    /v1/trace                flight-recorder ring snapshot (internal/trace)
//	GET    /v1/slo                  live fidelity SLIs + burn-rate health (internal/slo)
//	GET    /v1/healthz              liveness; burn-rate health when a watchdog
//	                                is attached (503 on "page")
//
// Every non-2xx response carries the JSON error envelope
//
//	{"error": {"code": "unknown_tenant", "message": "..."}}
//
// where code is one of the Code* constants — machine-readable, stable
// across message rewording. Client decodes the envelope into *APIError.
// version_conflict envelopes additionally carry current_version (and the
// response an ETag) so a stale writer can retry without a second GET;
// batch_failed envelopes carry per-item error envelopes under items.
//
// Spec-versioned mutations (PUT/PATCH /v1/spec, POST /v1/tenants:batch)
// accept an optional If-Match header naming the spec version from GET
// /v1/spec (bare or ETag-quoted); a stale version yields 409 with code
// version_conflict.
// GET/PUT /v1/tenants/{name} instead use a per-tenant content ETag
// ("t-<hash>", covering name/id/algorithm/bounds/levels): GET returns
// it, PUT's If-Match requires it, so concurrent edits of one tenant are
// detected without serializing on the global spec version.
//
// GET /v1/trace serves the attached flight recorder's ring (see
// Server.AttachTrace). Query parameters tenant, kind (repeatable), and
// limit filter the snapshot; the response carries an ETag derived from
// the recorder's event sequence number, so If-None-Match turns an
// unchanged poll into a 304 answered from that number alone, no snapshot.
//
// GET /v1/slo serves the attached fidelity watchdog's live snapshot (see
// Server.AttachSLO and internal/slo): shadow-oracle SLIs, per-tenant
// latency/drop/throughput SLIs, and multi-window burn-rate health. The
// ETag is the watchdog revision (count of sampled events), giving the
// same cheap-poll contract as /v1/trace. When a watchdog is attached,
// GET /v1/healthz reports the overall state ("ok"/"warn"/"page") with
// per-SLO detail, answering 503 while paging.
package api

import (
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
	"qvisor/internal/trace"
)

// TenantInfo is the wire representation of a tenant registration.
type TenantInfo struct {
	// Name is the tenant's identifier in operator specs.
	Name string `json:"name"`
	// ID is the packet label value.
	ID pkt.TenantID `json:"id"`
	// Algorithm is a rank-function name (pfabric, edf, fq, ...). May be
	// empty when Bounds are declared directly.
	Algorithm string `json:"algorithm,omitempty"`
	// Bounds overrides the algorithm's declared rank bounds.
	Bounds *BoundsInfo `json:"bounds,omitempty"`
	// Levels overrides the quantization granularity (0 = auto).
	Levels int64 `json:"levels,omitempty"`
	// Flagged reports adversarial flagging (responses only).
	Flagged bool `json:"flagged,omitempty"`
	// Quarantined reports demotion to the bottom tier (responses only).
	Quarantined bool `json:"quarantined,omitempty"`
}

// BoundsInfo is the wire form of a rank interval.
type BoundsInfo struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

// SpecRequest replaces the operator specification.
type SpecRequest struct {
	Spec string `json:"spec"`
}

// SpecResponse is the operator specification together with its version —
// the number of compilations performed, monotonically increasing with
// every accepted mutation — and the policy epoch it is deployed as. Echo
// the version in If-Match to make a read-modify-write update conditional.
type SpecResponse struct {
	Spec    string `json:"spec"`
	Version uint64 `json:"version"`
	// Epoch is the generation number of the policy epoch publishing this
	// spec (equal to Version under the controller's aligned numbering).
	Epoch uint64 `json:"epoch"`
}

// SpecOpInfo is one targeted edit for PATCH /v1/spec; see policy.Op for
// the op vocabulary (add, remove, set_weight, demote).
type SpecOpInfo struct {
	Op     string `json:"op"`
	Tenant string `json:"tenant"`
	Tier   int    `json:"tier,omitempty"`
	Level  int    `json:"level,omitempty"`
	Weight int64  `json:"weight,omitempty"`
}

// PatchSpecRequest applies targeted ops to the current specification.
type PatchSpecRequest struct {
	Ops []SpecOpInfo `json:"ops"`
}

// BatchOpInfo is one entry of a bulk tenant mutation: op is "join",
// "leave", or "update". Join and update carry the tenant definition;
// leave carries only the name.
type BatchOpInfo struct {
	Op     string      `json:"op"`
	Tenant *TenantInfo `json:"tenant,omitempty"`
	Name   string      `json:"name,omitempty"`
}

// BatchRequest is a bulk tenant mutation: the ops apply as a single
// transaction compiling into ONE new policy epoch, or not at all. Spec,
// when non-empty, replaces the operator specification in the same
// transaction (joins and leaves change the tenant universe, so most
// batches need it).
type BatchRequest struct {
	Ops  []BatchOpInfo `json:"ops"`
	Spec string        `json:"spec,omitempty"`
}

// BatchItemResult reports one batch op's outcome; Error is nil on
// success.
type BatchItemResult struct {
	Op    string     `json:"op"`
	Name  string     `json:"name"`
	Error *ErrorBody `json:"error,omitempty"`
}

// BatchResponse is the outcome of an applied batch: per-item results
// plus the resulting spec, version, and epoch.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
	Spec    string            `json:"spec"`
	Version uint64            `json:"version"`
	Epoch   uint64            `json:"epoch"`
}

// TransformInfo is the wire form of one rank transformation.
type TransformInfo struct {
	Tenant string `json:"tenant"`
	Lo     int64  `json:"lo"`
	Hi     int64  `json:"hi"`
	Levels int64  `json:"levels"`
	Stride int64  `json:"stride"`
	Phase  int64  `json:"phase"`
	Offset int64  `json:"offset"`
}

// PolicyResponse describes the deployed joint policy.
type PolicyResponse struct {
	Spec       string          `json:"spec"`
	Version    uint64          `json:"version"`
	OutputLo   int64           `json:"output_lo"`
	OutputHi   int64           `json:"output_hi"`
	Transforms []TransformInfo `json:"transforms"`
}

// MonitorResponse is a tenant monitor snapshot.
type MonitorResponse struct {
	Tenant          string  `json:"tenant"`
	Count           uint64  `json:"count"`
	WindowCount     int     `json:"window_count"`
	ObservedLo      int64   `json:"observed_lo"`
	ObservedHi      int64   `json:"observed_hi"`
	P50             int64   `json:"p50"`
	P95             int64   `json:"p95"`
	OutsideFraction float64 `json:"outside_fraction"`
	Drift           float64 `json:"drift"`
}

// CheckResponse reports a control-loop iteration.
type CheckResponse struct {
	Redeployed bool   `json:"redeployed"`
	Version    uint64 `json:"version"`
}

// CompileRequest asks for a guarantee analysis against a target device.
type CompileRequest struct {
	Name        string `json:"name"`
	Sorted      bool   `json:"sorted"`
	Queues      int    `json:"queues"`
	RankRewrite bool   `json:"rank_rewrite"`
	Admission   bool   `json:"admission"`
}

// RequirementInfo grades one obligation of the spec on the target.
type RequirementInfo struct {
	Kind    string   `json:"kind"`
	Tenants []string `json:"tenants"`
	Level   string   `json:"level"`
	Note    string   `json:"note"`
}

// CompileResponse is the guarantee report.
type CompileResponse struct {
	Feasible     bool              `json:"feasible"`
	Requirements []RequirementInfo `json:"requirements"`
	PartialSpec  string            `json:"partial_spec,omitempty"`
	Downgrades   []string          `json:"downgrades,omitempty"`
}

// DeviceInfo describes one fabric device for network-wide planning.
type DeviceInfo struct {
	Name   string         `json:"name"`
	Role   string         `json:"role,omitempty"`
	Target CompileRequest `json:"target"`
}

// FabricRequest asks for a network-wide plan over heterogeneous devices.
type FabricRequest struct {
	Devices []DeviceInfo `json:"devices"`
}

// FabricDevicePlan reports one device's outcome.
type FabricDevicePlan struct {
	Name     string `json:"name"`
	Role     string `json:"role,omitempty"`
	Backend  string `json:"backend"`
	Feasible bool   `json:"feasible"`
}

// FabricResponse is the network-wide guarantee report.
type FabricResponse struct {
	Feasible   bool               `json:"feasible"`
	Guarantees map[string]string  `json:"guarantees"`
	Bottleneck map[string]string  `json:"bottleneck"`
	Devices    []FabricDevicePlan `json:"devices"`
}

// InterferenceInfo is one pair of the worst-case interference matrix.
type InterferenceInfo struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Fraction float64 `json:"fraction"`
	Relation string  `json:"relation"`
}

// AnalyzeResponse is the offline worst-case analysis of the deployed
// policy (§2, Idea 2).
type AnalyzeResponse struct {
	Pairs    []InterferenceInfo `json:"pairs"`
	Isolated []string           `json:"isolated,omitempty"`
}

// TraceResponse is a flight-recorder ring snapshot: the events that
// matched the query filters, oldest first, plus the recorder's sequence
// number (total events ever recorded — the snapshot's ETag value; equal
// sequence numbers imply identical rings).
type TraceResponse struct {
	Seq    uint64        `json:"seq"`
	Events []trace.Event `json:"events"`
}

// Machine-readable error codes carried in the error envelope. Clients
// should branch on these, not on message text.
const (
	// CodeParseError: a request body or spec string failed to parse.
	CodeParseError = "parse_error"
	// CodeBadRequest: the request was well-formed but invalid (missing
	// parameter, malformed If-Match, ...).
	CodeBadRequest = "bad_request"
	// CodeUnknownTenant: the named tenant is not registered.
	CodeUnknownTenant = "unknown_tenant"
	// CodeTenantExists: a registration named an already-present tenant.
	CodeTenantExists = "tenant_exists"
	// CodeSynthFailed: the joint policy could not be re-synthesized for
	// the requested configuration; the previous policy remains deployed.
	CodeSynthFailed = "synth_failed"
	// CodeVersionConflict: If-Match named a stale spec version (or, on
	// PUT /v1/tenants/{name}, a stale tenant content ETag).
	CodeVersionConflict = "version_conflict"
	// CodeBatchFailed: a tenants:batch transaction had failing items and
	// was not applied; the envelope's items list the per-op errors.
	CodeBatchFailed = "batch_failed"
	// CodeInvalidTarget: a compile/fabric target description was invalid.
	CodeInvalidTarget = "invalid_target"
	// CodeNotFound: no route matched the request path.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// ErrorBody is the payload of the error envelope: a stable machine-readable
// code plus a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// CurrentVersion accompanies version_conflict: the spec version in
	// force, so the client can retry without a second GET.
	CurrentVersion uint64 `json:"current_version,omitempty"`
	// Items accompanies batch_failed: one result per batch op.
	Items []BatchItemResult `json:"items,omitempty"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// toTenant converts a wire registration to a core tenant.
func (ti TenantInfo) toTenant() (*core.Tenant, error) {
	t := &core.Tenant{ID: ti.ID, Name: ti.Name, Levels: ti.Levels}
	if ti.Algorithm != "" {
		r, err := rank.ByName(ti.Algorithm)
		if err != nil {
			return nil, err
		}
		t.Algorithm = r
	}
	if ti.Bounds != nil {
		t.Bounds = rank.Bounds{Lo: ti.Bounds.Lo, Hi: ti.Bounds.Hi}
	}
	return t, nil
}

func tenantInfo(t *core.Tenant, flagged, quarantined bool) TenantInfo {
	ti := TenantInfo{
		Name:        t.Name,
		ID:          t.ID,
		Levels:      t.Levels,
		Flagged:     flagged,
		Quarantined: quarantined,
	}
	if t.Algorithm != nil {
		ti.Algorithm = t.Algorithm.Name()
	}
	if t.Bounds != (rank.Bounds{}) {
		ti.Bounds = &BoundsInfo{Lo: t.Bounds.Lo, Hi: t.Bounds.Hi}
	}
	return ti
}
