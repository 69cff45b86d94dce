package main

import (
	"net/http/httptest"
	"testing"

	"qvisor/internal/api"
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
	"qvisor/internal/slo"
	"qvisor/internal/trace"
)

func TestParseBounds(t *testing.T) {
	lo, hi, ok := parseBounds("0-100000")
	if !ok || lo != 0 || hi != 100000 {
		t.Fatalf("parseBounds = %d,%d,%v", lo, hi, ok)
	}
	lo, hi, ok = parseBounds("7-9")
	if !ok || lo != 7 || hi != 9 {
		t.Fatalf("parseBounds = %d,%d,%v", lo, hi, ok)
	}
	// Algorithm names are not bounds.
	for _, in := range []string{"pfabric", "edf", "x-y", "5", "-"} {
		if _, _, ok := parseBounds(in); ok {
			t.Errorf("parseBounds(%q) accepted", in)
		}
	}
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	// Argument validation happens before any network I/O.
	for _, args := range [][]string{
		{"batch", "join:a"},                    // too few parts
		{"batch", "spec=spec", "join:a:x:edf"}, // bad id
		{"batch", "leave"},                     // too few parts
		{"join", "a", "1", "edf", "a"},         // removed subcommand
		{"leave", "a", "b"},                    // removed subcommand
		{"monitor"},                            // too few args
		{"compile"},                            // too few args
		{"compile", "x"},                       // bad queue count
		{"compile", "4", "bogus"},              // unknown capability
		{"fabric"},                             // too few args
		{"fabric", "noequals"},                 // bad device
		{"fabric", "a=junk"},                   // bad target
		{"fabric", "a=queues:x"},               // bad queue count
		{"fabric", "a=queues:4:bogus"},         // unknown option
		{"trace", "junk"},                      // filter missing '='
		{"trace", "tenant=x"},                  // bad tenant
		{"trace", "limit=-1"},                  // bad limit
		{"trace", "bogus=1"},                   // unknown filter key
		{"slo", "bogus"},                       // unknown slo arg
		{"slo", "interval=x"},                  // bad interval
		{"slo", "interval=-1s"},                // non-positive interval
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestTraceSubcommand drives the trace subcommand against a live server
// with a populated flight recorder, covering every filter key.
func TestTraceSubcommand(t *testing.T) {
	ctl, _, err := core.NewController([]*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}, policy.MustParse("web >> deadline"), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(ctl, func() sim.Time { return 0 })
	rec := trace.NewFlightRecorder(trace.Options{RingSize: 16})
	p := &pkt.Packet{ID: 1, Flow: 10, Tenant: 1, Rank: 7}
	rec.Record(1000, trace.KindEmit, "host0", p)
	p.Rank = 21
	rec.RecordTransform(2000, "leaf0", p, 7)
	rec.RecordDrop(3000, "leaf0", p, "overflow")
	srv.AttachTrace(rec)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, args := range [][]string{
		{"-server", ts.URL, "trace"},
		{"-server", ts.URL, "trace", "tenant=1", "kind=drop", "limit=1"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestSLOSubcommand drives the slo subcommand against a live server
// with an attached watchdog that has seen some sampled traffic.
func TestSLOSubcommand(t *testing.T) {
	ctl, _, err := core.NewController([]*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
	}, policy.MustParse("web"), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(ctl, func() sim.Time { return 0 })
	w := slo.New(slo.Config{SampleN: 1})
	pw := w.PortWatch()
	p := &pkt.Packet{ID: 1, Flow: 0, Tenant: 1, Rank: 7, Size: 100}
	pw.OnEnqueue(0, p)
	pw.OnDequeue(10, p)
	srv.AttachSLO(w)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := run([]string{"-server", ts.URL, "slo"}); err != nil {
		t.Errorf("run(slo): %v", err)
	}
	// Without a watchdog the endpoint 404s and the error surfaces.
	plain := httptest.NewServer(api.NewServer(ctl, nil))
	defer plain.Close()
	if err := run([]string{"-server", plain.URL, "slo"}); err == nil {
		t.Error("run(slo) against a watchdog-less server succeeded")
	}
}

// TestBulkSubcommands drives the bulk surface — tenant, batch, patch,
// epochs — against a live server.
func TestBulkSubcommands(t *testing.T) {
	ctl, _, err := core.NewController([]*core.Tenant{
		{ID: 1, Name: "web", Algorithm: &rank.PFabric{}},
		{ID: 2, Name: "deadline", Algorithm: &rank.EDF{}},
	}, policy.MustParse("web >> deadline"), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(ctl, func() sim.Time { return 0 })
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, args := range [][]string{
		{"-server", ts.URL, "tenant", "web"},
		{"-server", ts.URL, "tenant", "web", "0-9000"},
		{"-server", ts.URL, "batch",
			"join:bulk:3:fq", "leave:bulk"},
		{"-server", ts.URL, "batch", "spec=web >> deadline >> keep",
			"join:keep:4:0-500"},
		{"-server", ts.URL, "patch", "set_weight:web:2"},
		{"-server", ts.URL, "patch", "remove:keep", "add:keep:tier=2:weight=3"},
		{"-server", ts.URL, "epochs"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if v := ctl.Version(); v != 6 {
		t.Errorf("version = %d after five mutations, want 6", v)
	}

	// Argument validation happens before any network I/O.
	for _, args := range [][]string{
		{"tenant"},                          // too few args
		{"tenant", "web", "levels=x"},       // bad levels
		{"batch", "join:a:b"},               // too few parts
		{"batch", "join:a:x:edf"},           // bad id
		{"batch", "leave:a:b"},              // too many parts
		{"batch", "promote:a"},              // unknown op
		{"patch"},                           // too few args
		{"patch", "set_weight"},             // missing tenant
		{"patch", "set_weight:web:tier=x"},  // bad value
		{"patch", "set_weight:web:depth=3"}, // unknown field
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
