package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

// newTraceServer is newTestServer with a populated flight recorder
// attached: a two-packet lifecycle for tenant 1 and an admission drop
// for tenant 2.
func newTraceServer(t *testing.T) (*Client, *trace.Recorder) {
	t.Helper()
	tenants := []*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}
	ctl, _, err := core.NewController(tenants, policy.MustParse("web >> deadline"), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl, func() sim.Time { return 0 })
	rec := trace.NewFlightRecorder(trace.Options{RingSize: 32})
	p1 := &pkt.Packet{ID: 1, Flow: 10, Tenant: 1, Rank: 7, Size: 1500}
	rec.Record(1000, trace.KindEmit, "host0", p1)
	rec.Record(2000, trace.KindEnqueue, "host0→leaf0", p1)
	rec.Record(3000, trace.KindDequeue, "host0→leaf0", p1)
	rec.Record(4000, trace.KindDeliver, "host1", p1)
	p2 := &pkt.Packet{ID: 2, Flow: 20, Tenant: 2, Rank: 90, Size: 400}
	rec.Record(1500, trace.KindEmit, "host2", p2)
	rec.RecordDrop(2500, "leaf0", p2, "admission")
	srv.AttachTrace(rec)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), rec
}

// TestTraceEndpoint: GET /v1/trace must return exactly the recorder's
// ring snapshot — same events, same order, same sequence number — and
// honor the tenant/kind/limit query filters.
func TestTraceEndpoint(t *testing.T) {
	c, rec := newTraceServer(t)
	ctx := context.Background()

	got, err := c.Trace(ctx, AllTrace)
	if err != nil {
		t.Fatal(err)
	}
	want, seq := rec.Snapshot(trace.AllEvents)
	if got.Seq != seq {
		t.Fatalf("seq = %d, want %d", got.Seq, seq)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("endpoint diverges from ring snapshot:\ngot  %+v\nwant %+v", got.Events, want)
	}

	byTenant, err := c.Trace(ctx, TraceFilter{Tenant: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(byTenant.Events) != 2 || byTenant.Events[1].Cause != "admission" {
		t.Fatalf("tenant filter: %+v", byTenant.Events)
	}
	byKind, err := c.Trace(ctx, TraceFilter{Tenant: -1, Kinds: []string{trace.KindDrop}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(byKind.Events) != 1 || byKind.Events[0].Kind != trace.KindDrop {
		t.Fatalf("kind+limit filter: %+v", byKind.Events)
	}
}

// TestTraceETag: the response ETag is the recorder's sequence number and
// If-None-Match on an unchanged ring yields 304 with no body; recording
// another event invalidates it.
func TestTraceETag(t *testing.T) {
	c, rec := newTraceServer(t)
	resp, err := c.hc.Get(c.base + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag != `"6"` {
		t.Fatalf("ETag = %q, want \"6\"", etag)
	}

	get := func(inm string) int {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/v1/trace", nil)
		req.Header.Set("If-None-Match", inm)
		r2, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		return r2.StatusCode
	}
	if code := get(etag); code != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: %d, want 304", code)
	}
	rec.Record(5000, trace.KindEmit, "host0", &pkt.Packet{ID: 3, Flow: 10, Tenant: 1})
	if code := get(etag); code != http.StatusOK {
		t.Fatalf("stale If-None-Match after new event: %d, want 200", code)
	}
}

// TestConditionalPollIsCheap: a poll whose If-None-Match still matches
// must be answered from the change counter alone. Against a full default
// ring a snapshot is an 11 MB copy under the recorder's lock; the 304 has
// to cost a few allocations of request plumbing, on /v1/slo likewise.
func TestConditionalPollIsCheap(t *testing.T) {
	tenants := []*core.Tenant{{ID: 1, Name: "web", Algorithm: &rank.PFabric{}}}
	ctl, _, err := core.NewController(tenants, policy.MustParse("web"), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl, func() sim.Time { return 0 })
	rec := trace.NewFlightRecorder(trace.Options{})
	p := &pkt.Packet{ID: 1, Flow: 10, Tenant: 1, Size: 1500}
	for i := 0; i < trace.DefaultRingSize; i++ {
		rec.Record(sim.Time(i), trace.KindEnqueue, "host0→leaf0", p)
	}
	srv.AttachTrace(rec)
	w := slo.New(slo.Config{SampleN: 1})
	churn(w.PortWatch(), 0, 64, false)
	srv.AttachSLO(w)

	for path, tag := range map[string]uint64{"/v1/trace": rec.Count(), "/v1/slo": w.Revision()} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("If-None-Match", `"`+strconv.FormatUint(tag, 10)+`"`)
		const polls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < polls; i++ {
			resp := httptest.NewRecorder()
			srv.ServeHTTP(resp, req)
			if resp.Code != http.StatusNotModified || resp.Body.Len() != 0 {
				t.Fatalf("%s: matching poll answered %d with %d body bytes, want an empty 304", path, resp.Code, resp.Body.Len())
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / polls; per >= 4096 {
			t.Errorf("%s: a matching conditional poll allocates %d bytes, want under 4 KB", path, per)
		}
	}
}

// TestTraceValidation: bad query parameters are 400s, and a server
// without a recorder answers 404 so clients can distinguish "tracing
// off" from "ring empty".
func TestTraceValidation(t *testing.T) {
	c, _ := newTraceServer(t)
	for _, q := range []string{"?tenant=x", "?tenant=-3", "?limit=x", "?limit=-1"} {
		resp, err := c.hc.Get(c.base + "/v1/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", q, resp.StatusCode)
		}
	}

	plain, _, _ := newTestServer(t, core.ControllerOptions{})
	_, err := plain.Trace(context.Background(), AllTrace)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeNotFound {
		t.Fatalf("recorderless trace: %v, want %s", err, CodeNotFound)
	}
}
