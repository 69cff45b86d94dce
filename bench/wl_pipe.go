package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/pkt"
	"qvisor/internal/policy"
	"qvisor/internal/rank"
	"qvisor/internal/sched"
)

// The two pipe workloads run no simulator: a seeded (tenant, rank) stream of
// 64-byte packets goes through rewrite → enqueue → dequeue against a
// standing backlog, in windows of 256.

const (
	pipeTenants   = 64
	pipeTierWidth = 8
	pipeRankHi    = 65535
	pipeLevels    = 256
	pipeWin       = 256
	pipePktBytes  = 64
	// pipeStream is the length of the pre-generated (tenant, rank) stream
	// the passes cycle through: 256 windows, 1.5 MB, larger than L2.
	pipeStream = pipeWin * 256
)

type streamEntry struct {
	tenant pkt.TenantID
	rank   int64
}

type statser interface{ Stats() sched.Stats }

type pipe struct {
	batch   bool // ApplyBatch per window instead of Process per packet
	backlog int
	windows int // per pass

	pp     *core.Preprocessor
	q      sched.Scheduler
	pool   *pkt.Pool
	stream []streamEntry
	// expect[w] is conform.RefApply's output for the first packet of stream
	// window w; passes check it on every fourth window (1 in 1024 packets).
	expect []int64
	buf    []*pkt.Packet

	offered, dequeued, dropped uint64 // lifetime, for conservation
	win                        int    // next stream window
	nextID                     uint64
	genS                       float64
}

func buildPipePerPkt(seed int64, scale float64) (runner, error) {
	return newPipe(seed, &pipe{backlog: 4096, windows: scaled(2_000_000, scale, 4*pipeWin) / pipeWin},
		core.BackendBucketQ)
}

func buildPipeBatchDeep(seed int64, scale float64) (runner, error) {
	return newPipe(seed, &pipe{batch: true, backlog: scaled(65536, scale, 4096),
		windows: scaled(1_000_000, scale, 4*pipeWin) / pipeWin}, core.BackendPIFO)
}

// pipeTenantSet is the 64-tenant policy: dense IDs, 8 strict tiers of 8
// sharing tenants, each with bounds [0, 65535] and 256 levels.
func pipeTenantSet(n, width int, hi int64) ([]*core.Tenant, *policy.Spec, error) {
	tenants := make([]*core.Tenant, n)
	var b strings.Builder
	for i := range tenants {
		name := fmt.Sprintf("t%d", i)
		tenants[i] = &core.Tenant{ID: pkt.TenantID(i + 1), Name: name,
			Bounds: rank.Bounds{Lo: 0, Hi: hi}, Levels: pipeLevels}
		switch {
		case i == 0:
		case i%width == 0:
			b.WriteString(" >> ")
		default:
			b.WriteString(" + ")
		}
		b.WriteString(name)
	}
	spec, err := policy.Parse(b.String())
	return tenants, spec, err
}

func newPipe(seed int64, p *pipe, backend core.Backend) (runner, error) {
	tenants, spec, err := pipeTenantSet(pipeTenants, pipeTierWidth, pipeRankHi)
	if err != nil {
		return nil, err
	}
	jp, err := core.Synthesize(tenants, spec, core.SynthOptions{})
	if err != nil {
		return nil, err
	}
	p.pp = core.NewPreprocessor(jp, core.UnknownWorst)
	p.pool = pkt.NewPool()
	// Capacity holds the backlog plus two windows, so nothing is ever
	// dropped: on these workloads no operation fails.
	dep, err := jp.Deploy(backend, core.DeployOptions{Sched: sched.Config{
		CapacityBytes: (p.backlog + 2*pipeWin) * pipePktBytes,
		OnDrop: func(d *pkt.Packet, _ sched.DropCause) {
			p.dropped++
			p.pool.Put(d)
		},
	}})
	if err != nil {
		return nil, err
	}
	p.q = dep.Scheduler

	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	p.stream = make([]streamEntry, pipeStream)
	for i := range p.stream {
		p.stream[i] = streamEntry{tenant: pkt.TenantID(1 + rng.Intn(pipeTenants)), rank: rng.Int63n(pipeRankHi + 1)}
	}
	p.genS = time.Since(t0).Seconds()
	p.expect = make([]int64, pipeStream/pipeWin)
	for w := range p.expect {
		e := p.stream[w*pipeWin]
		out, exact := conform.RefApply(jp.Transforms[e.tenant], e.rank)
		if !exact {
			return nil, fmt.Errorf("tenant %d's transform is outside the exact integer regime", e.tenant)
		}
		p.expect[w] = out
	}
	p.buf = make([]*pkt.Packet, pipeWin)

	// Standing backlog, then one warm-up pass.
	for p.q.Len() < p.backlog {
		p.generate()
		p.pp.ApplyBatch(p.buf)
		for _, x := range p.buf {
			p.q.Enqueue(x)
		}
		p.nextWindow()
	}
	if r := p.pass(nil, -1); r.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", r.why)
	}
	return p, nil
}

// generate fills buf with the next stream window's packets from the pool.
func (p *pipe) generate() {
	base := p.win * pipeWin
	for j := range p.buf {
		x := p.pool.Get()
		e := &p.stream[base+j]
		p.nextID++
		x.ID, x.Tenant, x.Rank, x.Size = p.nextID, e.tenant, e.rank, pipePktBytes
		p.buf[j] = x
	}
	p.offered += pipeWin
}

func (p *pipe) nextWindow() {
	if p.win++; p.win == len(p.expect) {
		p.win = 0
	}
}

// pass pushes windows x 256 packets through the pipeline. An op is a packet.
func (p *pipe) pass(t *tracer, n int) pass {
	var r pass
	root := t.begin("pass", -1, n)
	t0 := time.Now()
	switch {
	case t != nil:
		p.tracedLoop(t, root, n, &r)
	case p.batch:
		p.batchLoop(&r)
	default:
		p.perPktLoop(&r)
	}
	r.wall = float64(time.Since(t0))
	t.end(root)
	r.ops = uint64(p.windows) * pipeWin
	r.attempted = r.ops
	r.nsPerOp = r.wall / float64(r.ops)
	// Conservation: every packet ever offered was dequeued, dropped, or is
	// standing in the queue; and the pool agrees.
	if want := p.dequeued + p.dropped + uint64(p.q.Len()); p.offered != want {
		r.fail("conservation: offered %d != dequeued %d + dropped %d + standing %d",
			p.offered, p.dequeued, p.dropped, p.q.Len())
	}
	if out := p.pool.Outstanding(); out != p.q.Len() {
		r.fail("pool: %d packets outstanding, %d standing in the queue", out, p.q.Len())
	}
	if p.dropped > 0 {
		r.fail("%d packets dropped; capacity is sized for none", p.dropped)
	}
	return r
}

// perPktLoop is the default switch path: Process then Enqueue per packet,
// then a window of Dequeue and Put.
func (p *pipe) perPktLoop(r *pass) {
	for w := 0; w < p.windows; w++ {
		base := p.win * pipeWin
		var first int64
		for j := 0; j < pipeWin; j++ {
			x := p.pool.Get()
			e := &p.stream[base+j]
			p.nextID++
			x.ID, x.Tenant, x.Rank, x.Size = p.nextID, e.tenant, e.rank, pipePktBytes
			p.pp.Process(x)
			if j == 0 {
				first = x.Rank
			}
			p.q.Enqueue(x)
		}
		p.offered += pipeWin
		p.check(r, first)
		p.drain()
		p.nextWindow()
	}
}

// batchLoop rewrites each window with one ApplyBatch call.
func (p *pipe) batchLoop(r *pass) {
	for w := 0; w < p.windows; w++ {
		p.generate()
		p.pp.ApplyBatch(p.buf)
		first := p.buf[0].Rank
		for _, x := range p.buf {
			p.q.Enqueue(x)
		}
		p.check(r, first)
		p.drain()
		p.nextWindow()
	}
}

// drain dequeues one window and returns the packets to the pool.
func (p *pipe) drain() {
	for j := 0; j < pipeWin; j++ {
		if x := p.q.Dequeue(); x != nil {
			p.dequeued++
			p.pool.Put(x)
		}
	}
}

// check compares the rewritten rank of the window's first packet with the
// reference evaluator's, on every fourth window.
func (p *pipe) check(r *pass, got int64) {
	if p.win&3 == 0 && got != p.expect[p.win] {
		r.fail("window %d: rewritten rank %d, conform.RefApply says %d", p.win, got, p.expect[p.win])
	}
}

// tracedLoop is the same work with one span per stage per window.
func (p *pipe) tracedLoop(t *tracer, root, n int, r *pass) {
	for w := 0; w < p.windows; w++ {
		id := t.begin("generate", root, n)
		p.generate()
		t.end(id)

		id = t.begin("rewrite", root, n)
		if p.batch {
			p.pp.ApplyBatch(p.buf)
		} else {
			for _, x := range p.buf {
				p.pp.Process(x)
			}
		}
		t.end(id)
		first := p.buf[0].Rank

		id = t.begin("enqueue", root, n)
		for _, x := range p.buf {
			p.q.Enqueue(x)
		}
		t.end(id)
		p.check(r, first)

		id = t.begin("dequeue", root, n)
		for j := range p.buf {
			p.buf[j] = p.q.Dequeue()
		}
		t.end(id)

		id = t.begin("release", root, n)
		for _, x := range p.buf {
			if x != nil {
				p.dequeued++
				p.pool.Put(x)
			}
		}
		t.end(id)
		p.nextWindow()
	}
}

func (p *pipe) close() []string { return nil }

func (p *pipe) describe(w io.Writer) {
	fmt.Fprintf(w, "  scheduler %s, standing backlog %d, %d packets per pass, preprocessor %+v\n",
		p.q.Name(), p.q.Len(), p.windows*pipeWin, p.pp.Stats())
}

func (p *pipe) layers(t *tracer, untraced []pass, reps int) (map[string]float64, error) {
	pre0, pool0 := p.pp.Stats(), p.pool.Stats()
	var sch0 sched.Stats
	if s, ok := p.q.(statser); ok {
		sch0 = s.Stats()
	}
	first := len(t.spans)
	var traced []float64
	for i := 0; i < reps; i++ {
		r := p.pass(t, i)
		if r.failed > 0 {
			return nil, fmt.Errorf("traced pass: %v", r.why)
		}
		traced = append(traced, r.wall)
	}
	var plain []float64
	for _, r := range untraced {
		plain = append(plain, r.wall)
	}
	dur := totals(t.spans[first:])
	self := selfTimes(t.spans[first:])
	pkts := float64(reps * p.windows * pipeWin)
	wall := float64(dur["pass"])
	pre, pool := p.pp.Stats(), p.pool.Stats()

	out := map[string]float64{
		"bench.trace_overhead_share": median(traced)/median(plain) - 1,
		"workload.gen_s":             p.genS,
		"workload.flows":             pipeTenants,
		"sched.enq_ns":               float64(dur["enqueue"]) / pkts,
		"sched.deq_ns":               float64(dur["dequeue"]) / pkts,
		"sched.share":                float64(dur["enqueue"]+dur["dequeue"]) / wall,
		"sched.backlog_mean":         float64(p.backlog) + pipeWin/2,
		"core.preproc_share":         float64(dur["rewrite"]) / wall,
		"core.preproc_pkts":          float64(pre.Processed-pre0.Processed) / float64(reps),
		"core.preproc_clamped":       float64(pre.Clamped-pre0.Clamped) / float64(reps),
		"core.preproc_unknown":       float64(pre.Unknown-pre0.Unknown) / float64(reps),
		"pkt.pool_getput_ns":         float64(dur["generate"]+dur["release"]) / pkts,
		"pkt.pool_gets":              float64(pool.Gets-pool0.Gets) / float64(reps),
		"pkt.pool_reuse_ratio":       1 - ratio(float64(pool.News-pool0.News), float64(pool.Gets-pool0.Gets)),
		// The stages are the whole pipeline, so the model is the sum of
		// the stage spans; the residue is loop and timer overhead.
		"model.explained_share":        1 - float64(self["pass"])/wall,
		"model.unexplained_ns_per_pkt": float64(self["pass"]) / pkts,
	}
	if p.batch {
		out["core.preproc_batch_ns_per_pkt"] = float64(dur["rewrite"]) / pkts
	} else {
		out["core.preproc_ns_per_pkt"] = float64(dur["rewrite"]) / pkts
	}
	if s, ok := p.q.(statser); ok {
		st := s.Stats()
		out["sched.ops"] = float64(st.Enqueued-sch0.Enqueued+st.Dequeued-sch0.Dequeued) / float64(reps)
		out["sched.drops"] = float64(st.Dropped-sch0.Dropped) / float64(reps)
		out["sched.evictions"] = float64(st.Evicted-sch0.Evicted) / float64(reps)
	}
	return out, nil
}
