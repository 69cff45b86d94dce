package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Perfetto export: renders a recorded trace in the Chrome trace-event
// JSON format, loadable in ui.perfetto.dev (or chrome://tracing).
//
// Mapping: each tenant is a "process" (pid) and each flow a "thread"
// (tid) within it, so the UI groups spans by tenant and lines flows up
// on their own tracks. Queueing and transmission are complete ("X")
// duration events named after the port; emit, transform, deliver, and
// drop are instant ("i") events. Drop instants carry the cause and
// transform instants the pre/post rank in their args. Timestamps are
// microseconds (the format's unit); durations keep nanosecond precision
// as fractional microseconds.

// perfettoEvent is one Chrome trace-event object.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WritePerfetto renders events (in record order) as Chrome trace-event
// JSON. Spans whose opening event fell outside the trace (a wrapped
// ring) are rendered as instants only.
func WritePerfetto(w io.Writer, events []Event) error {
	type openSpan struct {
		at    int64
		where string
	}
	type pktState struct {
		enq *openSpan // enqueue awaiting dequeue
		tx  *openSpan // dequeue awaiting arrive/deliver
	}
	state := make(map[uint64]*pktState)
	st := func(id uint64) *pktState {
		s, ok := state[id]
		if !ok {
			s = &pktState{}
			state[id] = s
		}
		return s
	}

	var out []perfettoEvent
	seenPid := make(map[uint64]bool)
	seenTid := make(map[[2]uint64]bool)
	meta := func(e *Event) {
		pid, tid := uint64(e.Tenant), e.Flow
		if !seenPid[pid] {
			seenPid[pid] = true
			out = append(out, perfettoEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("tenant %d", e.Tenant)},
			})
		}
		k := [2]uint64{pid, tid}
		if !seenTid[k] {
			seenTid[k] = true
			out = append(out, perfettoEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("flow %d", e.Flow)},
			})
		}
	}
	instant := func(e *Event, name string, args map[string]any) {
		out = append(out, perfettoEvent{
			Name: name, Cat: "packet", Ph: "i", Ts: us(e.TimeNs),
			Pid: uint64(e.Tenant), Tid: e.Flow, S: "t", Args: args,
		})
	}
	span := func(e *Event, cat string, open *openSpan) {
		d := us(e.TimeNs - open.at)
		out = append(out, perfettoEvent{
			Name: cat + " " + open.where, Cat: cat, Ph: "X",
			Ts: us(open.at), Dur: &d,
			Pid: uint64(e.Tenant), Tid: e.Flow,
			Args: map[string]any{"pkt": e.ID},
		})
	}

	for i := range events {
		e := &events[i]
		meta(e)
		switch e.Kind {
		case KindEmit:
			instant(e, "emit "+e.Where, map[string]any{
				"pkt": e.ID, "rank": e.Rank, "size": e.Size, "pkt_kind": e.PktKind,
			})
		case KindArrive:
			s := st(e.ID)
			if s.tx != nil {
				span(e, "tx", s.tx)
				s.tx = nil
			}
		case KindTransform:
			instant(e, "transform "+e.Where, map[string]any{
				"pkt": e.ID, "pre_rank": e.PreRank, "rank": e.Rank,
			})
		case KindEnqueue:
			st(e.ID).enq = &openSpan{at: e.TimeNs, where: e.Where}
		case KindDequeue:
			s := st(e.ID)
			if s.enq != nil {
				span(e, "queue", s.enq)
				s.enq = nil
			}
			s.tx = &openSpan{at: e.TimeNs, where: e.Where}
		case KindDeliver:
			s := st(e.ID)
			if s.tx != nil {
				span(e, "tx", s.tx)
			}
			delete(state, e.ID)
			instant(e, "deliver "+e.Where, map[string]any{"pkt": e.ID})
		case KindDrop:
			delete(state, e.ID)
			instant(e, "drop "+e.Where, map[string]any{"pkt": e.ID, "cause": e.Cause})
		}
	}
	// Stable output: metadata first, then events by (ts, pid, tid, name).
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		return out[i].Tid < out[j].Tid
	})

	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i := range out {
		b, err := json.Marshal(&out[i])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(out)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// ExportPerfetto renders rec's ring as a Chrome trace-event JSON file at
// path and notes on log how many events it wrote and, when the ring
// wrapped, how many of the oldest it lost.
func ExportPerfetto(path string, rec *Recorder, log io.Writer) error {
	events, _ := rec.Snapshot(AllEvents)
	if n := rec.Count(); n > uint64(len(events)) {
		fmt.Fprintf(log, "trace: ring wrapped, keeping the most recent %d of %d events; raise -trace-sample\n",
			len(events), n)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := WritePerfetto(w, events); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(log, "trace: %d events rendered to %s\n", len(events), path)
	return f.Close()
}
