package core_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"qvisor/internal/conform"
	"qvisor/internal/core"
	"qvisor/internal/obs"
	"qvisor/internal/pkt"
	"qvisor/internal/rank"
)

// kernelTransforms covers every regime the compiled table resolves at
// build time: exact integer quantization (plain, weighted, negative
// bounds), the float fallback for spans whose d*(Levels-1) would overflow,
// and the degenerate quantizers (span ≤ 0, Levels ≤ 1, Levels ≤ 0).
var kernelTransforms = []core.Transform{
	{Lo: 7, Hi: 9, Levels: 3, Stride: 1, Offset: 1},
	{Lo: 0, Hi: 1 << 16, Levels: 64, Stride: 3, Phase: 1, Weight: 2, Offset: 10},
	{Lo: -500, Hi: 500, Levels: 11, Stride: 3, Phase: 0, Offset: 10},
	{Lo: 0, Hi: 1 << 40, Levels: 1 << 30, Stride: 1, Offset: 1000},
	{Lo: math.MinInt64 / 2, Hi: math.MaxInt64 / 2, Levels: 1 << 20, Stride: 2, Phase: 1, Offset: 1 << 31},
	{Lo: 5, Hi: 5, Levels: 8, Stride: 1, Offset: 1 << 32},
	{Lo: 9, Hi: 3, Levels: 8, Stride: 1, Offset: 1<<32 + 8},
	{Lo: 0, Hi: 100, Levels: 1, Stride: 1, Offset: 1<<32 + 16},
	{Lo: 0, Hi: 100, Levels: 0, Stride: 4, Weight: 3, Offset: 1<<32 + 24},
}

// kernelPolicy gives ids[i] transform i (wrapping around).
func kernelPolicy(ids []pkt.TenantID) *core.JointPolicy {
	jp := &core.JointPolicy{
		Transforms: make(map[pkt.TenantID]core.Transform, len(ids)),
		Output:     rank.Bounds{Lo: 0, Hi: 1 << 33},
	}
	for i, id := range ids {
		jp.Transforms[id] = kernelTransforms[i%len(kernelTransforms)]
	}
	return jp
}

// kernelInputs returns, for every tenant of jp and the given unknown IDs,
// ranks below, at, inside and above the tenant's bounds plus the int64
// extremes — interleaved across tenants so batches mix slots.
func kernelInputs(jp *core.JointPolicy, ids, unknown []pkt.TenantID) []pkt.Packet {
	var per [][]int64
	all := append(append([]pkt.TenantID(nil), ids...), unknown...)
	longest := 0
	for _, id := range all {
		s := []int64{math.MinInt64, math.MaxInt64, 0, 42}
		if tr, ok := jp.Transforms[id]; ok {
			s = append(s, conform.TransformSamples(tr)...)
		}
		per = append(per, s)
		if len(s) > longest {
			longest = len(s)
		}
	}
	var out []pkt.Packet
	for k := 0; k < longest; k++ {
		for i, id := range all {
			if k < len(per[i]) {
				out = append(out, pkt.Packet{ID: uint64(len(out)), Tenant: id, Rank: per[i][k], Size: 64})
			}
		}
	}
	return out
}

// verdict is what the spec says about one packet.
type verdict struct {
	rank int64
	keep bool
}

// specRun evaluates the inputs with Transform.Apply — the readable spec —
// and books the statistics and registry contents the pre-processor must
// report: one counter update and one histogram observation per packet.
func specRun(t *testing.T, jp *core.JointPolicy, action core.UnknownTenantAction, in []pkt.Packet) ([]verdict, core.PreprocStats, obs.Snapshot) {
	t.Helper()
	reg := obs.NewRegistry()
	unknown := reg.Counter(core.MetricPreprocUnknown, "Packets whose tenant label has no transformation.")
	type inst struct {
		processed, clamped *obs.Counter
		shift              *obs.Histogram
	}
	insts := make(map[pkt.TenantID]inst)
	for id := range jp.Transforms {
		l := obs.L("tenant", fmt.Sprintf("tenant-%d", id))
		insts[id] = inst{
			processed: reg.Counter(core.MetricPreprocProcessed, "Packets whose rank the pre-processor rewrote.", l),
			clamped:   reg.Counter(core.MetricPreprocClamped, "Packets whose incoming rank fell outside the tenant's declared bounds.", l),
			shift:     reg.Histogram(core.MetricPreprocRankShift, "Absolute rank-rewrite magnitude |joint - tenant| (log2 buckets).", l),
		}
	}
	var st core.PreprocStats
	out := make([]verdict, len(in))
	for i, p := range in {
		tr, ok := jp.Transforms[p.Tenant]
		if !ok {
			st.Unknown++
			unknown.Inc()
			switch action {
			case core.UnknownPass:
				out[i] = verdict{p.Rank, true}
			case core.UnknownDrop:
				out[i] = verdict{p.Rank, false}
			default:
				out[i] = verdict{jp.Output.Hi + 1, true}
			}
			continue
		}
		got := tr.Apply(p.Rank)
		if ref, exact := conform.RefApply(tr, p.Rank); exact && ref != got {
			t.Fatalf("spec disagrees with the reference: %v.Apply(%d) = %d, RefApply %d", tr, p.Rank, got, ref)
		}
		out[i] = verdict{got, true}
		st.Processed++
		insts[p.Tenant].processed.Inc()
		if p.Rank < tr.Lo || p.Rank > tr.Hi {
			st.Clamped++
			insts[p.Tenant].clamped.Inc()
		}
		shift := got - p.Rank
		if shift < 0 {
			shift = -shift
		}
		insts[p.Tenant].shift.Observe(shift)
	}
	return out, st, reg.Snapshot()
}

// TestRewriteKernelMatchesSpec: Process, ApplyBatch, ProcessFrame, a
// pre-processor pinned to a published epoch and the stat-free
// Epoch.Process are one kernel, so over dense and sparse tenant IDs, with
// metrics off and on, under every unknown-tenant action, each must
// reproduce Transform.Apply byte for byte and report the spec's statistics
// — in Stats at once, in the registry after Flush.
func TestRewriteKernelMatchesSpec(t *testing.T) {
	layouts := map[string][]pkt.TenantID{
		"dense":  {1, 2, 3, 4, 5, 6, 7, 8, 9},
		"sparse": {1, 40000, 65535},
		// Sparse IDs over every transform regime, a gap-riddled index.
		"strided": {0, 700, 1400, 2100, 2800, 3500, 4200, 4900, 5600},
	}
	unknownIDs := []pkt.TenantID{777, 50000, 65534}
	type entry struct {
		name string
		// run processes in (a fresh copy) and returns each packet's
		// verdict; stats reports whether pp saw the packets.
		run   func(t *testing.T, pp *core.Preprocessor, e *core.Epoch, in []pkt.Packet) []verdict
		stats bool
	}
	entries := []entry{
		{"Process", func(t *testing.T, pp *core.Preprocessor, _ *core.Epoch, in []pkt.Packet) []verdict {
			out := make([]verdict, len(in))
			for i := range in {
				keep := pp.Process(&in[i])
				out[i] = verdict{in[i].Rank, keep}
			}
			return out
		}, true},
		{"ApplyBatch", func(t *testing.T, pp *core.Preprocessor, _ *core.Epoch, in []pkt.Packet) []verdict {
			ps := make([]*pkt.Packet, len(in))
			for i := range in {
				ps[i] = &in[i]
			}
			kept := pp.ApplyBatch(ps)
			out := make([]verdict, len(in))
			for side, part := range [][]*pkt.Packet{ps[:kept], ps[kept:]} {
				last := -1
				for _, p := range part {
					if int(p.ID) <= last {
						t.Fatalf("ApplyBatch reordered packets: %d after %d", p.ID, last)
					}
					last = int(p.ID)
					out[p.ID] = verdict{p.Rank, side == 0}
				}
			}
			return out
		}, true},
		{"ProcessFrame", func(t *testing.T, pp *core.Preprocessor, _ *core.Epoch, in []pkt.Packet) []verdict {
			out := make([]verdict, len(in))
			frame := make([]byte, pkt.LabelSize)
			for i, p := range in {
				if err := pkt.LabelOf(&p).Encode(frame); err != nil {
					t.Fatal(err)
				}
				err := pp.ProcessFrame(frame)
				var ut *core.ErrUnknownTenant
				if err != nil && !(errors.As(err, &ut) && ut.Tenant == p.Tenant) {
					t.Fatalf("ProcessFrame: %v", err)
				}
				var l pkt.Label
				if uerr := l.UnmarshalBinary(frame); uerr != nil {
					t.Fatal(uerr)
				}
				out[i] = verdict{l.Rank, err == nil}
			}
			return out
		}, true},
		{"Pin+Process", func(t *testing.T, pp *core.Preprocessor, e *core.Epoch, in []pkt.Packet) []verdict {
			// Start on a table that numbers the tenants' slots differently
			// (same transforms plus one more tenant), stage counts against
			// it, then move to e: the counts must carry over.
			pp.Update(kernelPolicyWithExtra(e.Policy))
			out := make([]verdict, len(in))
			half := len(in) / 2
			for i := range in {
				if i == half {
					pp.Pin(e)
				}
				keep := pp.Process(&in[i])
				out[i] = verdict{in[i].Rank, keep}
			}
			return out
		}, true},
		{"Epoch.Process", func(t *testing.T, _ *core.Preprocessor, e *core.Epoch, in []pkt.Packet) []verdict {
			out := make([]verdict, len(in))
			for i := range in {
				keep := e.Process(&in[i])
				out[i] = verdict{in[i].Rank, keep}
			}
			return out
		}, false},
	}
	for name, ids := range layouts {
		jp := kernelPolicy(ids)
		inputs := kernelInputs(jp, ids, unknownIDs)
		for _, action := range []core.UnknownTenantAction{core.UnknownWorst, core.UnknownPass, core.UnknownDrop} {
			want, wantStats, wantReg := specRun(t, jp, action, inputs)
			if wantStats.Processed == 0 || wantStats.Unknown == 0 || wantStats.Clamped == 0 {
				t.Fatalf("degenerate inputs: %+v", wantStats)
			}
			e := core.NewEpochStore(action).Publish(jp, nil)
			for _, instrumented := range []bool{false, true} {
				for _, en := range entries {
					t.Run(fmt.Sprintf("%s/%v/metrics=%v/%s", name, action, instrumented, en.name), func(t *testing.T) {
						pp := core.NewPreprocessor(jp, action)
						reg := obs.NewRegistry()
						if instrumented {
							pp.EnableMetrics(reg, nil)
						}
						in := append([]pkt.Packet(nil), inputs...)
						got := en.run(t, pp, e, in)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("packet %d (tenant %d, rank %d): got %+v, spec %+v",
									i, inputs[i].Tenant, inputs[i].Rank, got[i], want[i])
							}
						}
						if !en.stats {
							return
						}
						if st := pp.Stats(); st != wantStats {
							t.Fatalf("stats %+v, spec %+v", st, wantStats)
						}
						pp.Flush()
						if st := pp.Stats(); st != wantStats {
							t.Fatalf("stats after Flush %+v, spec %+v", st, wantStats)
						}
						if !instrumented {
							return
						}
						if snap := withoutFamilyOf(reg.Snapshot(), extraTenant); !reflect.DeepEqual(snap, wantReg) {
							t.Fatalf("registry after Flush:\n%+v\nspec:\n%+v", snap, wantReg)
						}
					})
				}
			}
		}
	}
}

// extraTenant is the ID kernelPolicyWithExtra adds; no layout uses it.
const extraTenant pkt.TenantID = 123

// kernelPolicyWithExtra is jp plus one more tenant, so its compiled table
// numbers the shared tenants' slots differently.
func kernelPolicyWithExtra(jp *core.JointPolicy) *core.JointPolicy {
	next := &core.JointPolicy{Transforms: map[pkt.TenantID]core.Transform{extraTenant: kernelTransforms[0]}, Output: jp.Output}
	for id, tr := range jp.Transforms {
		next.Transforms[id] = tr
	}
	return next
}

// withoutFamilyOf drops the (all-zero) series the Pin entry's first table
// registered for the extra tenant, which the spec never heard of.
func withoutFamilyOf(s obs.Snapshot, id pkt.TenantID) obs.Snapshot {
	name := fmt.Sprintf("tenant-%d", id)
	for fi := range s.Families {
		ms := s.Families[fi].Metrics[:0:0]
		for _, m := range s.Families[fi].Metrics {
			if m.Labels["tenant"] != name {
				ms = append(ms, m)
			}
		}
		s.Families[fi].Metrics = ms
	}
	return s
}
