// Command qvisorctl is the command-line client for qvisord's configuration
// API.
//
// Usage:
//
//	qvisorctl [-server URL] policy
//	qvisorctl [-server URL] spec [new-spec]
//	qvisorctl [-server URL] patch <op>:<tenant>[:tier=N][:level=N][:weight=N] ...
//	qvisorctl [-server URL] tenants
//	qvisorctl [-server URL] tenant <name> [algorithm|lo-hi] [levels=<n>]
//	qvisorctl [-server URL] batch [spec=<spec>] <join:name:id:alg|lo-hi> <leave:name> <update:name:id:alg|lo-hi> ...
//	qvisorctl [-server URL] epochs
//	qvisorctl [-server URL] monitor <name>
//
// batch applies any number of membership changes as one transaction
// compiling into a single policy epoch. patch edits the spec in place
// (ops: add, remove, set_weight, demote — a bare integer after the tenant
// is a weight, so set_weight:web:3 works). tenant with extra arguments
// performs a conditional update against the registration's content ETag.
//
//	qvisorctl [-server URL] check
//	qvisorctl [-server URL] compile <queues> [sorted|rewrite|admission ...]
//	qvisorctl [-server URL] metrics
//	qvisorctl [-server URL] slo [watch] [interval=<duration>]
//	qvisorctl [-server URL] trace [tenant=<id>] [kind=<kind> ...] [limit=<n>]
//
// slo prints the fidelity watchdog's report (GET /v1/slo); slo watch
// polls on the snapshot's revision ETag and reprints whenever sampled
// events have advanced it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"qvisor/internal/api"
	"qvisor/internal/pkt"
	"qvisor/internal/slo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qvisorctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qvisorctl", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:7474", "qvisord base URL")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := api.NewClient(*server, nil)

	switch rest[0] {
	case "policy":
		p, err := c.Policy(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("spec:    %s\nversion: %d\noutput:  [%d,%d]\n", p.Spec, p.Version, p.OutputLo, p.OutputHi)
		for _, tr := range p.Transforms {
			fmt.Printf("  %-12s [%d,%d] → %d levels ×%d+%d @%d\n",
				tr.Tenant, tr.Lo, tr.Hi, tr.Levels, tr.Stride, tr.Phase, tr.Offset)
		}
		return nil
	case "spec":
		if len(rest) >= 2 {
			if err := c.SetSpec(ctx, strings.Join(rest[1:], " ")); err != nil {
				return err
			}
		}
		spec, err := c.Spec(ctx)
		if err != nil {
			return err
		}
		fmt.Println(spec)
		return nil
	case "tenants":
		tenants, err := c.Tenants(ctx)
		if err != nil {
			return err
		}
		for _, t := range tenants {
			flags := ""
			if t.Flagged {
				flags += " FLAGGED"
			}
			if t.Quarantined {
				flags += " QUARANTINED"
			}
			alg := t.Algorithm
			if alg == "" && t.Bounds != nil {
				alg = fmt.Sprintf("bounds[%d,%d]", t.Bounds.Lo, t.Bounds.Hi)
			}
			fmt.Printf("%-12s id=%-4d %s%s\n", t.Name, t.ID, alg, flags)
		}
		return nil
	case "tenant":
		if len(rest) < 2 {
			return fmt.Errorf("usage: tenant <name> [algorithm|lo-hi] [levels=<n>]")
		}
		name := rest[1]
		ti, etag, err := c.Tenant(ctx, name)
		if err != nil {
			return err
		}
		if len(rest) == 2 {
			alg := ti.Algorithm
			if alg == "" && ti.Bounds != nil {
				alg = fmt.Sprintf("bounds[%d,%d]", ti.Bounds.Lo, ti.Bounds.Hi)
			}
			fmt.Printf("%-12s id=%-4d %s levels=%d etag=%s\n", ti.Name, ti.ID, alg, ti.Levels, etag)
			return nil
		}
		upd := api.TenantInfo{Name: name, ID: ti.ID, Levels: ti.Levels}
		for _, arg := range rest[2:] {
			if lo, hi, ok := parseBounds(arg); ok {
				upd.Bounds = &api.BoundsInfo{Lo: lo, Hi: hi}
			} else if val, ok := strings.CutPrefix(arg, "levels="); ok {
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return fmt.Errorf("bad levels %q", val)
				}
				upd.Levels = v
			} else {
				upd.Algorithm = arg
			}
		}
		// Conditional on the ETag just read: a concurrent edit turns into a
		// clean version_conflict instead of a lost update.
		out, newTag, err := c.PutTenant(ctx, upd, etag)
		if err != nil {
			return err
		}
		fmt.Printf("updated %s etag=%s\n", out.Name, newTag)
		return nil
	case "batch":
		var req api.BatchRequest
		for _, arg := range rest[1:] {
			if val, ok := strings.CutPrefix(arg, "spec="); ok {
				req.Spec = val
				continue
			}
			parts := strings.Split(arg, ":")
			switch parts[0] {
			case "join", "update":
				if len(parts) != 4 {
					return fmt.Errorf("usage: %s:name:id:algorithm|lo-hi", parts[0])
				}
				id, err := strconv.ParseUint(parts[2], 10, 16)
				if err != nil {
					return fmt.Errorf("bad id %q", parts[2])
				}
				ti := &api.TenantInfo{Name: parts[1], ID: pkt.TenantID(id)}
				if lo, hi, ok := parseBounds(parts[3]); ok {
					ti.Bounds = &api.BoundsInfo{Lo: lo, Hi: hi}
				} else {
					ti.Algorithm = parts[3]
				}
				req.Ops = append(req.Ops, api.BatchOpInfo{Op: parts[0], Tenant: ti})
			case "leave":
				if len(parts) != 2 {
					return fmt.Errorf("usage: leave:name")
				}
				req.Ops = append(req.Ops, api.BatchOpInfo{Op: "leave", Name: parts[1]})
			default:
				return fmt.Errorf("unknown batch op %q (want join, leave, or update)", parts[0])
			}
		}
		resp, err := c.Batch(ctx, req)
		if err != nil {
			var ae *api.APIError
			if errors.As(err, &ae) && len(ae.Items) > 0 {
				for _, it := range ae.Items {
					status := "ok"
					if it.Error != nil {
						status = it.Error.Code + ": " + it.Error.Message
					}
					fmt.Fprintf(os.Stderr, "  %-7s %-12s %s\n", it.Op, it.Name, status)
				}
			}
			return err
		}
		for _, it := range resp.Results {
			fmt.Printf("  %-7s %-12s ok\n", it.Op, it.Name)
		}
		fmt.Printf("spec: %s\nversion: %d  epoch: %d\n", resp.Spec, resp.Version, resp.Epoch)
		return nil
	case "patch":
		if len(rest) < 2 {
			return fmt.Errorf("usage: patch <op>:<tenant>[:tier=N][:level=N][:weight=N] ...")
		}
		var ops []api.SpecOpInfo
		for _, arg := range rest[1:] {
			parts := strings.Split(arg, ":")
			if len(parts) < 2 {
				return fmt.Errorf("bad op %q (want op:tenant[:k=v...])", arg)
			}
			op := api.SpecOpInfo{Op: parts[0], Tenant: parts[1]}
			for _, kv := range parts[2:] {
				key, val, found := strings.Cut(kv, "=")
				if !found {
					// A bare integer is a weight, mirroring the spec's
					// name*weight shorthand.
					key, val = "weight", kv
				}
				v, err := strconv.Atoi(val)
				if err != nil {
					return fmt.Errorf("bad %s %q", key, val)
				}
				switch key {
				case "tier":
					op.Tier = v
				case "level":
					op.Level = v
				case "weight":
					op.Weight = int64(v)
				default:
					return fmt.Errorf("unknown op field %q", key)
				}
			}
			ops = append(ops, op)
		}
		resp, err := c.PatchSpec(ctx, ops)
		if err != nil {
			return err
		}
		fmt.Printf("%s\nversion: %d  epoch: %d\n", resp.Spec, resp.Version, resp.Epoch)
		return nil
	case "epochs":
		g, err := c.Epochs(ctx)
		if err != nil {
			return err
		}
		if g.Current != nil {
			fmt.Printf("current:  gen %-6d inflight %d\n", g.Current.Gen, g.Current.Inflight)
		}
		for _, d := range g.Draining {
			fmt.Printf("draining: gen %-6d inflight %d\n", d.Gen, d.Inflight)
		}
		fmt.Printf("published: %d\n", g.Published)
		return nil
	case "monitor":
		if len(rest) != 2 {
			return fmt.Errorf("usage: monitor <name>")
		}
		m, err := c.Monitor(ctx, rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("tenant:   %s\nobserved: %d ranks, window [%d,%d] p50=%d p95=%d\noutside:  %.2f%%\ndrift:    %.3f\n",
			m.Tenant, m.Count, m.ObservedLo, m.ObservedHi, m.P50, m.P95, 100*m.OutsideFraction, m.Drift)
		return nil
	case "check":
		res, err := c.Check(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("redeployed=%v version=%d\n", res.Redeployed, res.Version)
		return nil
	case "metrics":
		text, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "slo":
		watch := false
		interval := time.Second
		for _, arg := range rest[1:] {
			if arg == "watch" {
				watch = true
			} else if val, ok := strings.CutPrefix(arg, "interval="); ok {
				d, err := time.ParseDuration(val)
				if err != nil || d <= 0 {
					return fmt.Errorf("bad interval %q", val)
				}
				interval = d
			} else {
				return fmt.Errorf("usage: slo [watch] [interval=<duration>]")
			}
		}
		snap, err := c.SLO(ctx)
		if err != nil {
			return err
		}
		if err := slo.WriteReport(os.Stdout, snap); err != nil {
			return err
		}
		if !watch {
			return nil
		}
		// Poll on the snapshot revision: unchanged watchdogs answer 304
		// and print nothing. Ctrl-C ends the watch.
		rev := snap.Revision
		for {
			time.Sleep(interval)
			pollCtx, cancel := context.WithTimeout(context.Background(), *timeout)
			snap, changed, err := c.SLOIfChanged(pollCtx, rev)
			cancel()
			if err != nil {
				return err
			}
			if !changed {
				continue
			}
			rev = snap.Revision
			if err := slo.WriteReport(os.Stdout, snap); err != nil {
				return err
			}
		}
	case "trace":
		f := api.AllTrace
		for _, arg := range rest[1:] {
			key, val, ok := strings.Cut(arg, "=")
			if !ok {
				return fmt.Errorf("bad trace filter %q (want tenant=<id>, kind=<kind>, or limit=<n>)", arg)
			}
			switch key {
			case "tenant":
				v, err := strconv.Atoi(val)
				if err != nil || v < 0 {
					return fmt.Errorf("bad tenant %q", val)
				}
				f.Tenant = v
			case "kind":
				f.Kinds = append(f.Kinds, val)
			case "limit":
				v, err := strconv.Atoi(val)
				if err != nil || v < 0 {
					return fmt.Errorf("bad limit %q", val)
				}
				f.Limit = v
			default:
				return fmt.Errorf("unknown trace filter %q", key)
			}
		}
		tr, err := c.Trace(ctx, f)
		if err != nil {
			return err
		}
		fmt.Printf("seq: %d  events: %d\n", tr.Seq, len(tr.Events))
		for _, e := range tr.Events {
			extra := ""
			if e.Cause != "" {
				extra = "  cause=" + e.Cause
			}
			if e.Kind == "transform" {
				extra = fmt.Sprintf("  pre_rank=%d", e.PreRank)
			}
			fmt.Printf("  %12dns %-9s %-12s pkt=%-8d flow=%-6d tenant=%-4d rank=%d%s\n",
				e.TimeNs, e.Kind, e.Where, e.ID, e.Flow, e.Tenant, e.Rank, extra)
		}
		return nil
	case "compile":
		if len(rest) < 2 {
			return fmt.Errorf("usage: compile <queues> [sorted|rewrite|admission ...]")
		}
		queues, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad queue count %q", rest[1])
		}
		req := api.CompileRequest{Name: "cli-target", Queues: queues}
		for _, opt := range rest[2:] {
			switch opt {
			case "sorted":
				req.Sorted = true
			case "rewrite":
				req.RankRewrite = true
			case "admission":
				req.Admission = true
			default:
				return fmt.Errorf("unknown target capability %q", opt)
			}
		}
		resp, err := c.Compile(ctx, req)
		if err != nil {
			return err
		}
		fmt.Printf("feasible: %v\n", resp.Feasible)
		for _, r := range resp.Requirements {
			fmt.Printf("  %-20s %-24s %-12s %s\n", r.Kind, strings.Join(r.Tenants, ","), r.Level, r.Note)
		}
		if resp.PartialSpec != "" {
			fmt.Printf("proposed partial spec: %s\n", resp.PartialSpec)
			for _, d := range resp.Downgrades {
				fmt.Printf("  downgrade: %s\n", d)
			}
		}
		return nil
	case "analyze":
		ar, err := c.Analyze(ctx)
		if err != nil {
			return err
		}
		for _, p := range ar.Pairs {
			fmt.Printf("  %-12s → %-12s %5.1f%%  (%s)\n", p.From, p.To, 100*p.Fraction, p.Relation)
		}
		if len(ar.Isolated) > 0 {
			fmt.Printf("fully isolated: %s\n", strings.Join(ar.Isolated, ", "))
		}
		return nil
	case "fabric":
		// fabric <name=queues:N[:rewrite]|name=pifo> ...
		if len(rest) < 2 {
			return fmt.Errorf("usage: fabric <name=pifo|name=queues:N[:rewrite][:admission]> ...")
		}
		var devices []api.DeviceInfo
		for _, spec := range rest[1:] {
			name, tgt, ok := strings.Cut(spec, "=")
			if !ok {
				return fmt.Errorf("bad device %q (want name=target)", spec)
			}
			d := api.DeviceInfo{Name: name}
			if tgt == "pifo" {
				d.Target = api.CompileRequest{Name: "pifo", Sorted: true, RankRewrite: true}
			} else {
				parts := strings.Split(tgt, ":")
				if parts[0] != "queues" || len(parts) < 2 {
					return fmt.Errorf("bad target %q", tgt)
				}
				q, err := strconv.Atoi(parts[1])
				if err != nil {
					return fmt.Errorf("bad queue count %q", parts[1])
				}
				d.Target = api.CompileRequest{Name: tgt, Queues: q}
				for _, opt := range parts[2:] {
					switch opt {
					case "rewrite":
						d.Target.RankRewrite = true
					case "admission":
						d.Target.Admission = true
					default:
						return fmt.Errorf("unknown target option %q", opt)
					}
				}
			}
			devices = append(devices, d)
		}
		resp, err := c.Fabric(ctx, devices)
		if err != nil {
			return err
		}
		fmt.Printf("feasible: %v\n", resp.Feasible)
		for kind, lvl := range resp.Guarantees {
			fmt.Printf("  %-20s %-12s (bottleneck: %s)\n", kind, lvl, resp.Bottleneck[kind])
		}
		for _, d := range resp.Devices {
			fmt.Printf("  device %-10s backend=%-10s feasible=%v\n", d.Name, d.Backend, d.Feasible)
		}
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// parseBounds parses "lo-hi" (e.g. "0-100000"), returning ok=false when the
// argument is an algorithm name instead.
func parseBounds(s string) (lo, hi int64, ok bool) {
	l, h, found := strings.Cut(s, "-")
	if !found {
		return 0, 0, false
	}
	lv, err1 := strconv.ParseInt(l, 10, 64)
	hv, err2 := strconv.ParseInt(h, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return lv, hv, true
}
