package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qvisor/internal/core"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

// fuzzMutation sends one fuzzer-made body to a mutating route of a fresh
// in-process server (no socket) and holds the daemon to its contract under
// malformed input: it never panics; every answer is JSON, and every refusal
// the error envelope; a refusal leaves GET /v1/spec (spec, version, epoch)
// and GET /v1/tenants byte-identical; an acceptance advances version and
// epoch by exactly one.
func fuzzMutation(t *testing.T, method, path string, body []byte) {
	tenants := []*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
		{ID: 3, Name: "bulk", Bounds: rank.Bounds{Lo: 0, Hi: 4096}},
	}
	ctl, _, err := core.NewController(tenants, policy.MustParse("web >> deadline + bulk"),
		core.ControllerOptions{EpochDeploy: &core.EpochDeploy{Backend: core.BackendSPQueues}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ctl, func() sim.Time { return 0 })
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	specBefore, tenantsBefore := get("/v1/spec"), get("/v1/tenants")

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))

	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("status %d with Content-Type %q: %s", rec.Code, ct, rec.Body)
	}
	specAfter, tenantsAfter := get("/v1/spec"), get("/v1/tenants")
	if rec.Code < 200 || rec.Code > 299 {
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Fatalf("status %d without an error envelope (%v): %s", rec.Code, err, rec.Body)
		}
		if !bytes.Equal(specBefore, specAfter) || !bytes.Equal(tenantsBefore, tenantsAfter) {
			t.Fatalf("status %d (%s) changed state:\nspec    %s -> %s\ntenants %s -> %s",
				rec.Code, er.Error.Code, specBefore, specAfter, tenantsBefore, tenantsAfter)
		}
		return
	}
	var reply, before, after SpecResponse // the batch reply carries the same three fields
	for _, dec := range []struct {
		raw []byte
		out *SpecResponse
	}{{rec.Body.Bytes(), &reply}, {specBefore, &before}, {specAfter, &after}} {
		if err := json.Unmarshal(dec.raw, dec.out); err != nil {
			t.Fatalf("status %d: %v: %s", rec.Code, err, dec.raw)
		}
	}
	if after.Epoch != before.Epoch+1 || after.Version != before.Version+1 {
		t.Fatalf("status %d moved version %d -> %d and epoch %d -> %d, want +1 each",
			rec.Code, before.Version, after.Version, before.Epoch, after.Epoch)
	}
	if reply.Epoch != after.Epoch || reply.Version != after.Version || reply.Spec != after.Spec {
		t.Fatalf("reply %+v disagrees with GET /v1/spec %+v", reply, after)
	}
}

// TestOversizedMutationBodies: a body past the 1 MiB the server reads is a
// refusal like any other. It is a test of its own because the fuzzer spends
// its budget minimizing inputs that large.
func TestOversizedMutationBodies(t *testing.T) {
	fuzzMutation(t, http.MethodPost, "/v1/tenants:batch",
		[]byte(`{"ops":[{"op":"leave","name":"bulk"}],"spec":"web >> deadline`+strings.Repeat(" ", 1<<20)+`"}`))
	fuzzMutation(t, http.MethodPatch, "/v1/spec",
		[]byte(`{"ops":[{"op":"demote","tenant":"web`+strings.Repeat(" ", 1<<20)+`"}]}`))
}

// FuzzBatchBody fuzzes the body of POST /v1/tenants:batch.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range []string{
		// Every documented op, alone and together.
		`{"ops":[{"op":"join","tenant":{"name":"batch","id":4,"algorithm":"fq"}}],"spec":"web >> deadline + bulk >> batch"}`,
		`{"ops":[{"op":"leave","name":"bulk"}],"spec":"web >> deadline"}`,
		`{"ops":[{"op":"update","tenant":{"name":"web","id":1,"algorithm":"pfabric","bounds":{"lo":0,"hi":5000},"levels":32}}]}`,
		`{"ops":[{"op":"join","tenant":{"name":"batch","id":4,"algorithm":"fq"}},` +
			`{"op":"update","tenant":{"name":"web","id":1,"algorithm":"pfabric","bounds":{"lo":0,"hi":5000}}},` +
			`{"op":"leave","name":"deadline"}],"spec":"web >> batch + bulk"}`,
		// The bulk_test.go bodies: poisoned, malformed, uncovered.
		`{"ops":[{"op":"join","tenant":{"name":"ok","id":4,"algorithm":"fq"}},` +
			`{"op":"join","tenant":{"name":"web","id":5,"algorithm":"fq"}},{"op":"leave","name":"nope"}],"spec":"web >> deadline >> ok"}`,
		`{"ops":[{"op":"promote","name":"web"},{"op":"join"},{"op":"leave"}]}`,
		`{"ops":[{"op":"join","tenant":{"name":"ghost","id":9,"algorithm":"fq"}}]}`,
		`{"ops":[{"op":"leave","name":"deadline"}],"spec":"web"}`,
		// Empty, duplicate and label-colliding op lists.
		`{}`, `{"ops":[]}`, `{"ops":null,"spec":"web"}`, `{"spec":"web + deadline + bulk"}`,
		`{"ops":[{"op":"leave","name":"bulk"},{"op":"leave","name":"bulk"}],"spec":"web >> deadline"}`,
		`{"ops":[{"op":"join","tenant":{"name":"x","id":4,"bounds":{"lo":0,"hi":9}}},{"op":"leave","name":"x"}]}`,
		`{"ops":[{"op":"update","tenant":{"name":"web","id":2,"algorithm":"pfabric"}}]}`,
		`{"ops":[{"op":"update","tenant":{"name":"web","id":2,"algorithm":"pfabric"}},{"op":"leave","name":"deadline"}],"spec":"web >> bulk"}`,
		`{"ops":[{"op":"update","tenant":{"name":"bulk","id":3,"bounds":{"lo":9,"hi":-9},"levels":-1}}]}`,
		`{"ops":[{"op":"update","tenant":{"name":"bulk","id":3,"bounds":{"lo":-9223372036854775808,"hi":9223372036854775807},"levels":9223372036854775807}}]}`,
		`{"ops":[{"op":"join","tenant":{"name":"","id":0}}],"spec":"web >> deadline + bulk"}`,
		// Unknown fields, wrong types, not JSON.
		`{"ops":[{"op":"leave","name":"bulk","force":true}],"spec":"web >> deadline"}`,
		`{"ops":[{"op":"join","tenant":{"name":"z","id":70000}}]}`, `{"ops":"leave"}`, `[]`, `null`, `{not json`, ``,
		`{"ops":[{"op":"leave","name":"bulk"}],"spec":"web >> >> deadline"}`,
		`{"ops":[{"op":"leave","name":"bulk"}],"spec":"web*9223372036854775807 + deadline*9223372036854775807"}`,
		// Oversized: far more ops than there are tenants.
		`{"ops":[` + strings.Repeat(`{"op":"leave","name":"bulk"},`, 200) + `{"op":"leave","name":"web"}],"spec":"deadline"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzMutation(t, http.MethodPost, "/v1/tenants:batch", body)
	})
}

// FuzzPatchSpecBody fuzzes the body of PATCH /v1/spec.
func FuzzPatchSpecBody(f *testing.F) {
	for _, seed := range []string{
		// Every documented op.
		`{"ops":[{"op":"set_weight","tenant":"deadline","weight":2}]}`,
		`{"ops":[{"op":"demote","tenant":"web"}]}`,
		`{"ops":[{"op":"remove","tenant":"bulk"},{"op":"add","tenant":"bulk","tier":2,"weight":3}]}`,
		`{"ops":[{"op":"remove","tenant":"bulk"},{"op":"add","tenant":"bulk","tier":0,"level":1}]}`,
		// The bulk_test.go bodies.
		`{"ops":[{"op":"set_weight","tenant":"web","weight":2}]}`, `{"ops":null}`,
		`{"ops":[{"op":"remove","tenant":"nope"}]}`, `{"ops":[{"op":"remove","tenant":"deadline"}]}`,
		// Empty, duplicate, out-of-range, unknown.
		`{}`, `{"ops":[]}`,
		`{"ops":[{"op":"demote","tenant":"web"},{"op":"demote","tenant":"web"}]}`,
		`{"ops":[{"op":"add","tenant":"ghost","tier":9}]}`, `{"ops":[{"op":"add","tenant":"web"}]}`,
		`{"ops":[{"op":"add","tenant":"ghost","tier":-1,"level":-1,"weight":-1}]}`,
		`{"ops":[{"op":"set_weight","tenant":"bulk","weight":9223372036854775807},{"op":"set_weight","tenant":"deadline","weight":9223372036854775807}]}`,
		`{"ops":[{"op":"set_weight","tenant":"bulk","weight":0}]}`,
		`{"ops":[{"op":"promote","tenant":"web"}]}`, `{"ops":[{"op":"","tenant":""}]}`,
		`{"ops":[{"op":"demote","tenant":"web","why":"x"}]}`, `{"ops":[{"op":"demote","tenant":7}]}`,
		`{"ops":{}}`, `[]`, `null`, `{not json`, ``,
		// Oversized: far more ops than there are tenants.
		`{"ops":[` + strings.Repeat(`{"op":"demote","tenant":"web"},`, 200) + `{"op":"demote","tenant":"bulk"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzMutation(t, http.MethodPatch, "/v1/spec", body)
	})
}
