package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"qvisor/internal/slo"
)

// HealthResponse is the body of GET /v1/healthz. Status is "ok" on a
// server without a watchdog (plain liveness); with one attached it is
// the watchdog's overall burn-rate state ("ok", "warn", or "page") and
// SLOs carries the per-SLO detail. A "page" state answers 503 so plain
// HTTP health checkers fail over without parsing the body.
type HealthResponse struct {
	Status string          `json:"status"`
	SLOs   []slo.SLOHealth `json:"slos,omitempty"`
}

// AttachSLO exposes w's live SLIs via GET /v1/slo and upgrades
// GET /v1/healthz from plain liveness to burn-rate health. Call before
// serving; without a watchdog /v1/slo answers 404 and /v1/healthz stays
// a liveness probe. The watchdog's own lock makes snapshots safe
// against a concurrently running data plane.
func (s *Server) AttachSLO(w *slo.Watchdog) { s.watch = w }

// handleSLO serves the watchdog's full SLI snapshot. The ETag is the
// watchdog's revision — it advances with every sampled event, so a
// matching If-None-Match proves the snapshot is unchanged and the reply
// collapses to 304. qvisorctl slo watch polls on exactly this.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.watch == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			errors.New("api: SLO reporting not enabled (server has no fidelity watchdog)"))
		return
	}
	if unchanged(w, r, s.watch.Revision()) {
		return
	}
	// One snapshot serves both the ETag and the body, so the pair is
	// consistent even while the data plane keeps sampling.
	snap := s.watch.Snapshot()
	setETag(w, snap.Revision)
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: string(slo.StateOK)}
	status := http.StatusOK
	if s.watch != nil {
		snap := s.watch.Snapshot()
		resp.Status = string(snap.State)
		resp.SLOs = snap.Health
		if snap.State == slo.StatePage {
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, resp)
}

// SLO fetches the live fidelity-watchdog snapshot: global and per-tenant
// SLIs plus burn-rate health per SLO. A server without an attached
// watchdog answers *APIError with CodeNotFound.
func (c *Client) SLO(ctx context.Context) (slo.Snapshot, error) {
	var out slo.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/slo", nil, &out)
	return out, err
}

// SLOIfChanged is SLO with revision-based polling: it sends the
// previous snapshot's revision as If-None-Match and reports changed =
// false (with a zero snapshot) on 304. Pass 0 to fetch unconditionally.
func (c *Client) SLOIfChanged(ctx context.Context, revision uint64) (slo.Snapshot, bool, error) {
	var out slo.Snapshot
	tag := ""
	if revision > 0 {
		tag = `"` + strconv.FormatUint(revision, 10) + `"`
	}
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/slo", "If-None-Match", tag, nil, http.StatusNotModified)
	if err != nil {
		return out, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return out, false, nil
	}
	return out, true, json.NewDecoder(resp.Body).Decode(&out)
}

// HealthStatus fetches burn-rate health. Unlike Health (which reports a
// paging server as an error, matching plain HTTP checkers), it decodes
// the body on both 200 and 503, so callers see the per-SLO detail
// behind a "page" state.
func (c *Client) HealthStatus(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/healthz", "", "", nil, http.StatusServiceUnavailable)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
