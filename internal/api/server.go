package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/orchestrator"
	"qvisor/internal/policy"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// Server exposes a core.Controller over HTTP. The controller is not safe
// for concurrent use, so the server serializes all access behind a mutex —
// configuration operations are control-plane rate, not data-plane rate.
type Server struct {
	mu     sync.Mutex
	ctl    *core.Controller
	start  time.Time
	clock  func() sim.Time
	mux    *http.ServeMux
	tracer *trace.Recorder
	watch  *slo.Watchdog
}

// NewServer wraps a controller. The controller's simulated-time arguments
// are driven by wall-clock time since server start; pass clock to override
// (tests).
func NewServer(ctl *core.Controller, clock func() sim.Time) *Server {
	s := &Server{ctl: ctl, start: time.Now(), clock: clock}
	if s.clock == nil {
		s.clock = func() sim.Time { return sim.Time(time.Since(s.start)) }
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/policy", s.handlePolicy)
	mux.HandleFunc("GET /v1/spec", s.handleGetSpec)
	mux.HandleFunc("PUT /v1/spec", s.handlePutSpec)
	mux.HandleFunc("PATCH /v1/spec", s.handlePatchSpec)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("POST /v1/tenants:batch", s.handleBatch)
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleGetTenant)
	mux.HandleFunc("PUT /v1/tenants/{name}", s.handlePutTenant)
	mux.HandleFunc("GET /v1/tenants/{name}/monitor", s.handleMonitor)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/fabric", s.handleFabric)
	mux.HandleFunc("GET /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	s.mux = mux
	return s
}

// AttachTrace exposes rec's event ring via GET /v1/trace. Call before
// serving; without a recorder the endpoint answers 404. The recorder's
// own lock makes snapshots safe against a concurrently running data
// plane.
func (s *Server) AttachTrace(rec *trace.Recorder) { s.tracer = rec }

// ServeHTTP implements http.Handler. The mux's built-in 404/405 fallbacks
// write plain text; envelopeWriter rewrites them into the JSON error
// envelope so every non-2xx response has the same shape.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
}

// envelopeWriter intercepts 404/405 status writes that are not already
// JSON (i.e. the mux's plain-text fallbacks, never our own enveloped
// replies) and substitutes the error envelope.
type envelopeWriter struct {
	http.ResponseWriter
	intercepted bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	ct := w.Header().Get("Content-Type")
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(ct, "application/json") {
		w.intercepted = true
		code := CodeNotFound
		msg := "api: no route matched the request path"
		if status == http.StatusMethodNotAllowed {
			code = CodeMethodNotAllowed
			msg = "api: method not allowed for this route"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options") // set by http.Error
		w.ResponseWriter.WriteHeader(status)
		_ = json.NewEncoder(w.ResponseWriter).Encode(ErrorResponse{
			Error: ErrorBody{Code: code, Message: msg},
		})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write drops the plain-text body of an intercepted fallback response.
func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.intercepted {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError sends the uniform error envelope: a machine-readable code (one
// of the Code* constants) plus err's message.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}

// replyError is a failure the API layer raises itself and already knows
// the answer to — a stale or malformed If-Match, an invalid patch op, a
// batch with failed items. fail sends it as it is.
type replyError struct {
	status int
	body   ErrorBody
	etag   string // when set, the tag a retry should name
}

func (e *replyError) Error() string { return e.body.Message }

// classify is the one table from a controller error's class to the status
// and envelope code that report it, for whole requests and for batch items
// alike. An error of no class is the joint compile rejecting the requested
// configuration; the previous policy remains deployed.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, core.ErrTenantNotFound):
		return http.StatusNotFound, CodeUnknownTenant
	case errors.Is(err, core.ErrTenantExists):
		return http.StatusConflict, CodeTenantExists
	case errors.Is(err, core.ErrBatchFailed):
		return http.StatusConflict, CodeBatchFailed
	default:
		return http.StatusConflict, CodeSynthFailed
	}
}

// fail answers a request the controller, or the API layer itself, refused.
func fail(w http.ResponseWriter, err error) {
	var re *replyError
	if !errors.As(err, &re) {
		status, code := classify(err)
		re = &replyError{status: status, body: ErrorBody{Code: code, Message: err.Error()}}
	}
	if re.etag != "" {
		w.Header().Set("ETag", `"`+re.etag+`"`)
	}
	writeJSON(w, re.status, ErrorResponse{Error: re.body})
}

// mutate is the path every mutating route takes once its body has parsed:
// under the lock, check the If-Match precondition, call the controller,
// and answer — a refusal through fail, a success through reply.
func (s *Server) mutate(w http.ResponseWriter, r *http.Request,
	match func(*http.Request) error, call func(now sim.Time) error, reply func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := match(r)
	if err == nil {
		err = call(s.clock())
	}
	if err != nil {
		fail(w, err)
		return
	}
	reply()
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jp := s.ctl.Policy()
	resp := PolicyResponse{
		Spec:     jp.Spec.String(),
		Version:  jp.Version,
		OutputLo: jp.Output.Lo,
		OutputHi: jp.Output.Hi,
	}
	for _, name := range jp.Spec.Tenants() {
		tr, ok := jp.TransformOf(name)
		if !ok {
			continue
		}
		resp.Transforms = append(resp.Transforms, TransformInfo{
			Tenant: name, Lo: tr.Lo, Hi: tr.Hi, Levels: tr.Levels,
			Stride: tr.Stride, Phase: tr.Phase, Offset: tr.Offset,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// matchVersion enforces optimistic concurrency on the spec-versioned
// routes: when the request carries an If-Match header, the mutation
// proceeds only if it names the current spec version (as returned by GET
// /v1/spec; bare or ETag-quoted, "*" matches anything). The caller must
// hold s.mu.
func (s *Server) matchVersion(r *http.Request) error {
	raw := r.Header.Get("If-Match")
	if raw == "" || raw == "*" {
		return nil
	}
	v, err := strconv.ParseUint(strings.Trim(raw, `"`), 10, 64)
	if err != nil {
		return &replyError{status: http.StatusBadRequest, body: ErrorBody{Code: CodeBadRequest,
			Message: fmt.Sprintf("api: malformed If-Match %q: want a spec version", raw)}}
	}
	if cur := s.ctl.Version(); v != cur {
		// The conflict reply hands back everything a retry needs: the
		// live version as both the envelope's current_version and the
		// response ETag.
		return &replyError{status: http.StatusConflict, etag: strconv.FormatUint(cur, 10), body: ErrorBody{
			Code:           CodeVersionConflict,
			Message:        fmt.Sprintf("api: spec version is %d, If-Match named %d", cur, v),
			CurrentVersion: cur,
		}}
	}
	return nil
}

// live returns the spec in force with its version and epoch, and names the
// version as the reply's ETag. The caller must hold s.mu.
func (s *Server) live(w http.ResponseWriter) SpecResponse {
	v := s.ctl.Version()
	w.Header().Set("ETag", `"`+strconv.FormatUint(v, 10)+`"`)
	return SpecResponse{Spec: s.ctl.Spec().String(), Version: v, Epoch: s.ctl.Epochs().Current().Gen}
}

func (s *Server) specResponse(w http.ResponseWriter) { writeJSON(w, http.StatusOK, s.live(w)) }

func (s *Server) handleGetSpec(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specResponse(w)
}

func (s *Server) handlePutSpec(w http.ResponseWriter, r *http.Request) {
	var req SpecRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	spec, err := policy.Parse(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	s.mutate(w, r, s.matchVersion,
		func(now sim.Time) error { return s.ctl.UpdateSpec(now, spec) },
		func() { s.specResponse(w) })
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TenantInfo
	for _, t := range s.ctl.Tenants() {
		out = append(out, tenantInfo(t, s.ctl.Flagged(t.Name), s.ctl.Quarantined(t.Name)))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.ctl.Monitor(name)
	if m == nil {
		writeError(w, http.StatusNotFound, CodeUnknownTenant,
			fmt.Errorf("api: no monitor for tenant %q", name))
		return
	}
	resp := MonitorResponse{
		Tenant:          name,
		Count:           m.Count(),
		OutsideFraction: m.OutsideFraction(),
		Drift:           m.Drift(),
	}
	if snap, ok := m.Snapshot(); ok {
		resp.WindowCount = snap.Count
		resp.ObservedLo = snap.Observed.Lo
		resp.ObservedHi = snap.Observed.Hi
		resp.P50 = snap.P50
		resp.P95 = snap.P95
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := s.ctl.Check(s.clock())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, CheckResponse{Redeployed: changed, Version: s.ctl.Version()})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, err := s.ctl.Policy().CompileTo(core.Target{
		Name:        req.Name,
		Sorted:      req.Sorted,
		Queues:      req.Queues,
		RankRewrite: req.RankRewrite,
		Admission:   req.Admission,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidTarget, err)
		return
	}
	resp := CompileResponse{Feasible: plan.Feasible, Downgrades: plan.Downgrades}
	for _, rq := range plan.Requirements {
		resp.Requirements = append(resp.Requirements, RequirementInfo{
			Kind:    rq.Kind.String(),
			Tenants: rq.Tenants,
			Level:   rq.Level.String(),
			Note:    rq.Note,
		})
	}
	if plan.Partial != nil {
		resp.PartialSpec = plan.Partial.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	report := s.ctl.Policy().Analyze()
	resp := AnalyzeResponse{Isolated: report.Isolated}
	for _, p := range report.Pairs {
		resp.Pairs = append(resp.Pairs, InterferenceInfo{
			From: p.From, To: p.To, Fraction: p.Fraction, Relation: p.Relation,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFabric(w http.ResponseWriter, r *http.Request) {
	var req FabricRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeParseError, err)
		return
	}
	devices := make([]orchestrator.Device, len(req.Devices))
	for i, d := range req.Devices {
		devices[i] = orchestrator.Device{
			Name: d.Name,
			Role: d.Role,
			Target: core.Target{
				Name:        d.Target.Name,
				Sorted:      d.Target.Sorted,
				Queues:      d.Target.Queues,
				RankRewrite: d.Target.RankRewrite,
				Admission:   d.Target.Admission,
			},
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fp, err := orchestrator.Plan(s.ctl.Policy(), devices)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidTarget, err)
		return
	}
	resp := FabricResponse{
		Feasible:   fp.Feasible,
		Guarantees: make(map[string]string, len(fp.Guarantees)),
		Bottleneck: make(map[string]string, len(fp.Bottleneck)),
	}
	for kind, lvl := range fp.Guarantees {
		resp.Guarantees[kind.String()] = lvl.String()
	}
	for kind, dev := range fp.Bottleneck {
		resp.Bottleneck[kind.String()] = dev
	}
	for _, dp := range fp.Devices {
		resp.Devices = append(resp.Devices, FabricDevicePlan{
			Name:     dp.Device.Name,
			Role:     dp.Device.Role,
			Backend:  dp.Backend.String(),
			Feasible: dp.Plan.Feasible,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// unchanged is the conditional-GET path of /v1/trace and /v1/slo: it
// answers 304 when If-None-Match names tag, the resource's current change
// counter, and reports whether it did. The tag is looked at before anything
// is copied: the counters are O(1) reads, a snapshot copies up to a whole
// event ring under the lock the data plane records with. On a miss the
// handler sends the snapshot's own tag (setETag) — the counter may have
// moved since, and tag and body must be one pair.
func unchanged(w http.ResponseWriter, r *http.Request, tag uint64) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" || strings.Trim(inm, `"`) != strconv.FormatUint(tag, 10) {
		return false
	}
	setETag(w, tag)
	w.WriteHeader(http.StatusNotModified)
	return true
}

func setETag(w http.ResponseWriter, tag uint64) {
	w.Header().Set("ETag", `"`+strconv.FormatUint(tag, 10)+`"`)
}

// handleTrace serves a filtered snapshot of the flight recorder's ring.
// The ETag is the recorder's sequence number: it advances with every
// recorded event, so a matching If-None-Match proves the ring (and hence
// any filtered view of it) is unchanged and the reply collapses to 304.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			errors.New("api: tracing not enabled (server has no flight recorder)"))
		return
	}
	f := trace.AllEvents
	q := r.URL.Query()
	if t := q.Get("tenant"); t != "" {
		v, err := strconv.Atoi(t)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("api: bad tenant %q: want a non-negative id", t))
			return
		}
		f.Tenant = v
	}
	if kinds, ok := q["kind"]; ok {
		f.Kinds = kinds
	}
	if l := q.Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("api: bad limit %q: want a non-negative count", l))
			return
		}
		f.Limit = v
	}
	if unchanged(w, r, s.tracer.Count()) {
		return
	}
	// No s.mu: the recorder serializes internally, and the seq/events pair
	// is taken atomically under its lock.
	events, seq := s.tracer.Snapshot(f)
	setETag(w, seq)
	writeJSON(w, http.StatusOK, TraceResponse{Seq: seq, Events: events})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.ctl.Registry()
	if reg == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			errors.New("api: metrics not enabled (controller built without a registry)"))
		return
	}
	// No s.mu: the registry's instruments are independently atomic, which
	// is the standard scrape consistency contract.
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}
