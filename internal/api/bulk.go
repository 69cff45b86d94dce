package api

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"

	"qvisor/internal/core"
	"qvisor/internal/policy"
	"qvisor/internal/sim"
)

// Handlers for the bulk-capable /v1 surface: tenants:batch, PATCH
// /v1/spec, per-tenant GET/PUT with content ETags, and the epoch view.

// tenantETag computes a tenant's content ETag: an FNV-1a hash over every
// field a registration carries (name, id, algorithm, bounds, levels),
// rendered "t-<hex>" so it can never collide with the numeric spec
// version ETags used elsewhere.
func tenantETag(t *core.Tenant) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d\x00", t.Name, t.ID)
	if t.Algorithm != nil {
		fmt.Fprintf(h, "%s", t.Algorithm.Name())
	}
	fmt.Fprintf(h, "\x00%d\x00%d\x00%d", t.Bounds.Lo, t.Bounds.Hi, t.Levels)
	return fmt.Sprintf("t-%016x", h.Sum64())
}

// handleBatch applies a bulk tenant mutation as one transaction: every
// op validates and the batch compiles into a single new policy epoch, or
// nothing changes and the 409 envelope reports each op's outcome.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			errors.New("api: batch has no ops"))
		return
	}
	var spec *policy.Spec
	if req.Spec != "" {
		var err error
		if spec, err = policy.Parse(req.Spec); err != nil {
			writeError(w, http.StatusBadRequest, CodeParseError, err)
			return
		}
	}
	// Convert the wire ops, collecting conversion failures per item so
	// one bad op reports alongside — not instead of — the others.
	ops := make([]core.TenantOp, len(req.Ops))
	results := make([]BatchItemResult, len(req.Ops))
	failed := false
	malformed := func(i int, msg string) {
		results[i].Error = &ErrorBody{Code: CodeBadRequest, Message: msg}
		failed = true
	}
	for i, op := range req.Ops {
		results[i] = BatchItemResult{Op: op.Op, Name: op.Name}
		switch op.Op {
		case "join", "update":
			if op.Tenant == nil {
				malformed(i, fmt.Sprintf("api: %s op without tenant", op.Op))
				continue
			}
			results[i].Name = op.Tenant.Name
			t, err := op.Tenant.toTenant()
			if err != nil {
				malformed(i, err.Error())
				continue
			}
			kind := core.OpJoin
			if op.Op == "update" {
				kind = core.OpUpdate
			}
			ops[i] = core.TenantOp{Kind: kind, Tenant: t}
		case "leave":
			if op.Name == "" {
				malformed(i, "api: leave op without name")
				continue
			}
			ops[i] = core.TenantOp{Kind: core.OpLeave, Name: op.Name}
		default:
			malformed(i, fmt.Sprintf("api: unknown batch op %q", op.Op))
		}
	}
	s.mutate(w, r, s.matchVersion, func(now sim.Time) error {
		if !failed {
			itemErrs, err := s.ctl.ApplyBatch(now, ops, spec)
			if !errors.Is(err, core.ErrBatchFailed) {
				// Applied — one new epoch covers the whole batch — or staged
				// fine and rejected by the joint compile (e.g. the new spec
				// doesn't cover the new tenant set).
				return err
			}
			for i, ie := range itemErrs {
				if ie != nil {
					_, code := classify(ie)
					results[i].Error = &ErrorBody{Code: code, Message: ie.Error()}
				}
			}
		}
		// Ops malformed on the wire or refused by the controller fail the
		// batch alike.
		status, code := classify(core.ErrBatchFailed)
		return &replyError{status: status, body: ErrorBody{
			Code:    code,
			Message: "api: batch not applied; see items",
			Items:   results,
		}}
	}, func() {
		cur := s.live(w)
		writeJSON(w, http.StatusOK, BatchResponse{Results: results, Spec: cur.Spec, Version: cur.Version, Epoch: cur.Epoch})
	})
}

// handlePatchSpec applies targeted ops to the current specification —
// the read-modify-write PUT without resending (or clobbering) the whole
// document.
func (s *Server) handlePatchSpec(w http.ResponseWriter, r *http.Request) {
	var req PatchSpecRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			errors.New("api: patch has no ops"))
		return
	}
	ops := make([]policy.Op, len(req.Ops))
	for i, op := range req.Ops {
		ops[i] = policy.Op{Kind: op.Op, Tenant: op.Tenant,
			Tier: op.Tier, Level: op.Level, Weight: op.Weight}
	}
	s.mutate(w, r, s.matchVersion, func(now sim.Time) error {
		spec, err := s.ctl.Spec().Apply(ops)
		if err != nil {
			return &replyError{status: http.StatusBadRequest,
				body: ErrorBody{Code: CodeBadRequest, Message: err.Error()}}
		}
		return s.ctl.UpdateSpec(now, spec)
	}, func() { s.specResponse(w) })
}

// handleGetTenant serves one registration with its content ETag.
func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.ctl.Tenant(name)
	if !ok {
		fail(w, fmt.Errorf("api: tenant %q: %w", name, core.ErrTenantNotFound))
		return
	}
	etag := tenantETag(t)
	w.Header().Set("ETag", `"`+etag+`"`)
	if inm := trimETag(r.Header.Get("If-None-Match")); inm == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, tenantInfo(t, s.ctl.Flagged(name), s.ctl.Quarantined(name)))
}

// handlePutTenant replaces one tenant's definition. If-Match, when
// present, must name the tenant's current content ETag (from GET); "*"
// matches any. The spec is untouched — membership changes go through
// tenants:batch.
func (s *Server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var ti TenantInfo
	if err := readJSON(r, &ti); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	if ti.Name == "" {
		ti.Name = name
	}
	if ti.Name != name {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("api: body names tenant %q, path names %q", ti.Name, name))
		return
	}
	t, err := ti.toTenant()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	var old *core.Tenant
	s.mutate(w, r, func(r *http.Request) error {
		var ok bool
		if old, ok = s.ctl.Tenant(name); !ok {
			return fmt.Errorf("api: tenant %q: %w", name, core.ErrTenantNotFound)
		}
		if raw := trimETag(r.Header.Get("If-Match")); raw != "" && raw != "*" {
			if cur := tenantETag(old); raw != cur {
				return &replyError{status: http.StatusConflict, etag: cur, body: ErrorBody{
					Code:    CodeVersionConflict,
					Message: fmt.Sprintf("api: tenant %q is at %s, If-Match named %s", name, cur, raw),
				}}
			}
		}
		return nil
	}, func(now sim.Time) error {
		if t.ID == 0 {
			// The label is part of the identity; an omitted id keeps the
			// registered one rather than silently re-labeling the tenant.
			t.ID = old.ID
		}
		return s.ctl.UpdateTenant(now, t)
	}, func() {
		w.Header().Set("ETag", `"`+tenantETag(t)+`"`)
		writeJSON(w, http.StatusOK, tenantInfo(t, s.ctl.Flagged(name), s.ctl.Quarantined(name)))
	})
}

// handleEpochs exposes the policy-generation store: the live epoch, the
// superseded epochs still draining in-flight packets, and the lifetime
// publish count.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	es := s.ctl.Epochs()
	s.mu.Unlock()
	// Generations() locks the store itself; the packet counts are
	// inherently a racy snapshot against a live data plane, like any
	// metrics scrape.
	writeJSON(w, http.StatusOK, es.Generations())
}

// trimETag strips optional surrounding quotes from an ETag header value.
func trimETag(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
