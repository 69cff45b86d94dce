package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"qvisor/internal/api"
	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sim"
)

// control_churn: one writer in a closed loop issues in-process
// PUT /v1/tenants/{name} requests (httptest, no socket) against a
// 1024-tenant controller while one reader goroutine pins epochs and
// rewrites ranks under them. Two goroutines, no data-plane layer.

const (
	churnTenants   = 1024
	churnTierWidth = 32
	churnPass      = 2000 // updates per pass
	readerBatch    = 32   // Epoch.Process calls per Acquire/Release pair
	// readerCheckEvery is how many reader batches pass between checks of a
	// rewritten rank against the reference evaluator.
	readerCheckEvery = 64
)

// churnDeploy puts a real deployment step on the update path: every epoch
// is compiled onto strict-priority queues, two per tier.
var churnDeploy = core.EpochDeploy{Backend: core.BackendSPQueues,
	Options: core.DeployOptions{Queues: 2 * churnTenants / churnTierWidth}}

type churn struct {
	updates int // per pass
	tenants int
	microN  int // iterations of the Acquire/Release micro-replay
	srv     *api.Server
	ctl     *core.Controller
	rng     *rand.Rand
	round   int
	genS    float64

	stop, done  chan struct{}
	readerPkts  atomic.Uint64
	readerFails atomic.Uint64

	// Replay targets of the traced run: a bare controller for the direct
	// UpdateTenant, and bare core pieces for resynth / deploy / publish.
	bare     *core.Controller
	rs       *core.Resynthesizer
	rsList   []*core.Tenant
	spec     *policy.Spec
	store    *core.EpochStore
	bytesReq uint64
	non2xx   uint64
	peakDrn  int
	p99s     []float64
	mpps     []float64
}

func buildControlChurn(seed int64, scale float64) (runner, error) {
	n := scaled(churnTenants, scale, 2*churnTierWidth)
	t0 := time.Now()
	tenants, spec, err := pipeTenantSet(n, churnTierWidth, pipeRankHi)
	if err != nil {
		return nil, err
	}
	c := &churn{updates: scaled(churnPass, scale, 40), tenants: n, spec: spec, microN: scaled(microIters, scale, 20_000),
		rng: rand.New(rand.NewSource(seed))}
	c.genS = time.Since(t0).Seconds()
	opts := core.ControllerOptions{EpochDeploy: &churnDeploy}
	if c.ctl, _, err = core.NewController(tenants, spec, opts); err != nil {
		return nil, err
	}
	if c.bare, _, err = core.NewController(tenants, spec, opts); err != nil {
		return nil, err
	}
	c.srv = api.NewServer(c.ctl, nil)
	c.rs = core.NewResynthesizer(core.SynthOptions{})
	c.rsList = append([]*core.Tenant(nil), tenants...)
	c.store = core.NewEpochStore(core.UnknownWorst)
	if err := c.replayCore(nil, -1, 0); err != nil {
		return nil, err
	}
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go c.reader(seed)
	if p := c.pass(nil, -1); p.failed > 0 {
		c.close()
		return nil, fmt.Errorf("warm-up pass: %v", p.why)
	}
	c.p99s, c.mpps = nil, nil
	return c, nil
}

// reader is the data plane beside the writer: pin the live epoch, rewrite a
// batch of ranks under it, unpin.
func (c *churn) reader(seed int64) {
	defer close(c.done)
	rng := rand.New(rand.NewSource(seed + 1))
	var in [readerBatch]streamEntry
	for i := range in {
		in[i] = streamEntry{tenant: pkt.TenantID(1 + rng.Intn(c.tenants)), rank: rng.Int63n(pipeRankHi + 1)}
	}
	store := c.ctl.Epochs()
	var p pkt.Packet
	for batch := 0; ; batch++ {
		select {
		case <-c.stop:
			return
		default:
		}
		e := store.Acquire()
		for i := range in {
			p.Tenant, p.Rank = in[i].tenant, in[i].rank
			e.Process(&p)
		}
		if batch%readerCheckEvery == 0 {
			last := in[readerBatch-1]
			if want, exact := conform.RefApply(e.Policy.Transforms[last.tenant], last.rank); exact && want != p.Rank {
				c.readerFails.Add(1)
			}
		}
		store.Release(e.Gen)
		c.readerPkts.Add(readerBatch)
	}
}

// mutation returns the next seeded update: a victim tenant with its upper
// bound nudged, as experiments.MeasureResynthLatency does.
func (c *churn) mutation() *core.Tenant {
	v := c.rng.Intn(c.tenants)
	c.round++
	return &core.Tenant{ID: pkt.TenantID(v + 1), Name: fmt.Sprintf("t%d", v),
		Bounds: rank.Bounds{Lo: 0, Hi: pipeRankHi + int64(1+c.round%63)}, Levels: pipeLevels}
}

// pass issues one pass of updates. An op is a request; its cost is the time
// from ServeHTTP's entry to its return, by when the new generation must be
// the current epoch.
func (c *churn) pass(t *tracer, n int) pass {
	var p pass
	lat := make([]float64, 0, c.updates)
	root := t.begin("pass", -1, n)
	pkts0, t0 := c.readerPkts.Load(), time.Now()
	for i := 0; i < c.updates; i++ {
		m := c.mutation()
		body, err := json.Marshal(api.TenantInfo{Name: m.Name, ID: m.ID,
			Bounds: &api.BoundsInfo{Lo: m.Bounds.Lo, Hi: m.Bounds.Hi}, Levels: m.Levels})
		if err != nil {
			p.fail("marshal: %v", err)
			continue
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/tenants/"+m.Name, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		gen := c.ctl.Epochs().Current().Gen

		id := t.begin("api.ServeHTTP", root, n)
		start := time.Now()
		c.srv.ServeHTTP(rec, req)
		lat = append(lat, float64(time.Since(start)))
		t.end(id)

		p.attempted++
		c.bytesReq += uint64(len(body) + rec.Body.Len())
		switch now := c.ctl.Epochs().Current().Gen; {
		case rec.Code < 200 || rec.Code > 299:
			c.non2xx++
			p.fail("PUT %s: status %d: %s", m.Name, rec.Code, rec.Body.String())
		case now != gen+1:
			p.fail("PUT %s: generation went %d -> %d, want +1", m.Name, gen, now)
		}
		if t != nil {
			if d := c.ctl.Epochs().Draining(); d > c.peakDrn {
				c.peakDrn = d
			}
			if err := c.replay(t, id, n, m); err != nil {
				p.fail("replay: %v", err)
			}
		}
	}
	p.wall = float64(time.Since(t0))
	t.end(root)
	if f := c.readerFails.Swap(0); f > 0 {
		p.failed += f
		p.why = append(p.why, fmt.Sprintf("%d reader ranks disagree with the pinned generation's transform", f))
	}
	p.ops = uint64(c.updates)
	p.nsPerOp = median(lat)
	c.p99s = append(c.p99s, percentile(lat, 99))
	c.mpps = append(c.mpps, float64(c.readerPkts.Load()-pkts0)/p.wall*1e3)
	return p
}

// replay re-runs the request's steps directly, as children of its span: the
// same update against a bare controller, and the three core steps against a
// bare resynthesizer and epoch store.
func (c *churn) replay(t *tracer, parent, n int, m *core.Tenant) error {
	id := t.begin("core.UpdateTenant", parent, n)
	err := c.bare.UpdateTenant(sim.Time(c.round), m)
	t.end(id)
	if err != nil {
		return err
	}
	c.rsList[int(m.ID)-1] = m
	return c.replayCore(t, id, n)
}

func (c *churn) replayCore(t *tracer, parent, n int) error {
	id := t.begin("core.Resynthesize", parent, n)
	jp, err := c.rs.Resynthesize(c.rsList, c.spec)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("core.Deploy", parent, n)
	dep, err := jp.Deploy(churnDeploy.Backend, churnDeploy.Options)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("core.Publish", parent, n)
	c.store.Publish(jp, dep)
	t.end(id)
	return nil
}

// close stops the reader and checks that no superseded epoch still holds a
// pinned packet.
func (c *churn) close() []string {
	close(c.stop)
	<-c.done
	if d := c.ctl.Epochs().Draining(); d != 0 {
		return []string{fmt.Sprintf("%d epochs still draining after the reader stopped", d)}
	}
	return nil
}

func (c *churn) describe(w io.Writer) {
	g := c.ctl.Epochs().Generations()
	fmt.Fprintf(w, "  %d tenants in tiers of %d, generation %d published, resynth %+v\n",
		c.tenants, churnTierWidth, g.Published, c.ctl.ResynthStats())
}

// spanP50 is the median duration in ns of the named spans.
func spanP50(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return median(d)
}

func (c *churn) layers(t *tracer, untraced []pass, reps int) (map[string]float64, error) {
	var plain, p50s []float64
	for _, p := range untraced {
		plain = append(plain, p.wall)
		p50s = append(p50s, p.nsPerOp)
	}
	out := map[string]float64{
		"workload.gen_s":          c.genS,
		"workload.flows":          float64(c.tenants),
		"api.update_epoch_p50_us": median(p50s) / 1e3,
		"api.update_epoch_p99_us": median(c.p99s) / 1e3,
		"core.epoch_reader_mpps":  median(c.mpps),
	}
	c.bytesReq, c.non2xx = 0, 0
	first := len(t.spans)
	var traced []float64
	for i := 0; i < reps; i++ {
		p := c.pass(t, i)
		if p.failed > 0 {
			return nil, fmt.Errorf("traced pass: %v", p.why)
		}
		traced = append(traced, p.nsPerOp)
	}
	spans := t.spans[first:]
	serve := spanP50(spans, "api.ServeHTTP")
	update := spanP50(spans, "core.UpdateTenant")
	resynth, deploy, publish := spanP50(spans, "core.Resynthesize"), spanP50(spans, "core.Deploy"), spanP50(spans, "core.Publish")
	// Tracing adds two clock reads around ServeHTTP; the replays run after
	// the request's span closes and cost the request nothing.
	out["bench.trace_overhead_share"] = median(traced)/median(p50s) - 1
	out["api.put_tenant_self_us"] = (serve - update) / 1e3
	out["api.json_bytes_per_req"] = float64(c.bytesReq) / float64(reps*c.updates)
	out["api.non2xx"] = float64(c.non2xx)
	out["core.resynth_us"] = resynth / 1e3
	out["core.deploy_us"] = deploy / 1e3
	out["core.epoch_publish_us"] = publish / 1e3
	out["core.epoch_peak_draining"] = float64(c.peakDrn)
	out["model.explained_share"] = (serve - update + resynth + deploy + publish) / serve
	out["model.unexplained_ns_per_pkt"] = update - resynth - deploy - publish

	st := c.ctl.ResynthStats()
	out["core.resynth_tier_hit_ratio"] = ratio(float64(st.TierHits), float64(st.TierHits+st.TierMisses))
	out["core.resynth_full_fallbacks"] = float64(st.Full)
	out["core.epoch_acq_rel_ns"] = epochAcqRelNs(c.store, c.microN)
	out["core.synth_full_us"] = fastest(microReps, func() float64 {
		t0 := time.Now()
		if _, err := core.Synthesize(c.rsList, c.spec, core.SynthOptions{}); err != nil {
			return 0
		}
		return float64(time.Since(t0)) / 1e3
	})
	return out, nil
}
